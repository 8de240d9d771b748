#include "columnar/dictionary.hpp"

#include <algorithm>
#include <functional>

#include "util/error.hpp"

namespace failmine::columnar {

namespace {

constexpr std::size_t kMinSlots = 16;

std::uint32_t hash_of(std::string_view name) {
  const std::uint64_t h = std::hash<std::string_view>{}(name);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

std::size_t Dictionary::probe(std::string_view name,
                              std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.code == kEmptySlot || (s.hash == hash && names_[s.code] == name))
      return i;
  }
}

void Dictionary::place(std::uint32_t code, std::uint32_t hash) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i].code != kEmptySlot) i = (i + 1) & mask;
  slots_[i] = Slot{code, hash};
}

std::uint32_t Dictionary::encode(std::string_view name) {
  const std::uint32_t hash = hash_of(name);
  if (!slots_.empty()) {
    const Slot& s = slots_[probe(name, hash)];
    if (s.code != kEmptySlot) return s.code;
  }
  if (names_.size() >= kEmptySlot)
    throw failmine::DomainError("dictionary is full");
  // Keep the table at most half full so probe runs stay short.
  if (2 * (names_.size() + 1) > slots_.size()) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max(kMinSlots, 2 * old.size()), Slot{kEmptySlot, 0});
    for (const Slot& s : old)
      if (s.code != kEmptySlot) place(s.code, s.hash);
  }
  const auto code = static_cast<std::uint32_t>(names_.size());
  const std::string& entry = names_.emplace_back(name);
  if (entry.capacity() > std::string().capacity())
    string_heap_bytes_ += entry.capacity() + 1;
  place(code, hash);
  return code;
}

std::optional<std::uint32_t> Dictionary::find(std::string_view name) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& s = slots_[probe(name, hash_of(name))];
  if (s.code == kEmptySlot) return std::nullopt;
  return s.code;
}

const std::string& Dictionary::name(std::uint32_t code) const {
  if (code >= names_.size())
    throw failmine::DomainError("unknown dictionary code " +
                                std::to_string(code));
  return names_[code];
}

void Dictionary::merge_from(const Dictionary& other,
                            std::vector<std::uint32_t>& remap) {
  remap.clear();
  remap.reserve(other.names_.size());
  for (const std::string& name : other.names_)
    remap.push_back(encode(name));
}

}  // namespace failmine::columnar
