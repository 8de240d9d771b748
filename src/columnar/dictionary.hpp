// failmine/columnar/dictionary.hpp
//
// Dictionary encoding for low-cardinality string columns.
//
// A Dictionary maps distinct strings to dense uint32 codes in first-seen
// order. Columnar tables store the codes (4 bytes per row) and keep one
// Dictionary per string column; a group-by over the column becomes a
// dense group-by over the codes (analysis/group_by.hpp).
//
// Index: the entries live once, in code order, in names_. The lookup
// index is a flat open-addressing table (linear probing, power-of-two
// capacity, at most half full) whose slots hold a code and that entry's
// 32-bit hash. A probe hashes the std::string_view once and compares a
// stored hash before it touches an entry string, so lookups build no
// temporary string and the index makes no per-entry allocation; growing
// it re-slots the stored hashes without re-hashing a string. Entries
// and index are two vectors, so bytes() is O(1) and destruction frees
// two buffers plus the heap buffers of entries too long for the
// small-string buffer.
//
// Code stability across parallel builds: the ingest engine parses chunks
// concurrently, each into its own builder with its own local dictionary,
// and the deterministic chunk-order merge remaps every chunk's codes into
// the first builder's dictionary. Because chunks are merged in file
// order, the final code assignment is exactly what a serial first-seen
// pass over the whole file would produce — for any thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace failmine::columnar {

class Dictionary {
 public:
  /// Code for `name`, appending a new entry on first sight.
  std::uint32_t encode(std::string_view name);

  /// Code for `name` if already present.
  std::optional<std::uint32_t> find(std::string_view name) const;

  /// The string behind a code; throws DomainError on an unknown code.
  const std::string& name(std::uint32_t code) const;

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(names_.size());
  }
  bool empty() const { return names_.empty(); }

  /// All entries in code order.
  const std::vector<std::string>& names() const { return names_; }

  /// Appends `other`'s entries (in other's code order, skipping ones
  /// already present) and fills `remap` so that
  /// `remap[other_code] == this->encode(other.name(other_code))`.
  void merge_from(const Dictionary& other, std::vector<std::uint32_t>& remap);

  /// Heap bytes held (entry strings + index).
  std::size_t bytes() const {
    return names_.capacity() * sizeof(std::string) + string_heap_bytes_ +
           slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint32_t code;  ///< kEmptySlot when unused
    std::uint32_t hash;
  };
  static constexpr std::uint32_t kEmptySlot = UINT32_MAX;

  /// Index of the slot holding `name`, or of the empty slot that ends
  /// its probe sequence. The table must be non-empty.
  std::size_t probe(std::string_view name, std::uint32_t hash) const;
  /// Stores `code` in the first empty slot of `hash`'s probe sequence.
  void place(std::uint32_t code, std::uint32_t hash);

  std::vector<std::string> names_;
  std::vector<Slot> slots_;
  std::size_t string_heap_bytes_ = 0;  ///< entries past the SSO buffer
};

}  // namespace failmine::columnar
