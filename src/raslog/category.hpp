// failmine/raslog/category.hpp
//
// Functional categories of RAS messages, used by the per-category
// breakdowns (E06) and by the fault model's rate tables.

#pragma once

#include <string>
#include <string_view>

namespace failmine::raslog {

enum class Category {
  kMemory,      ///< correctable/uncorrectable DRAM & cache errors
  kProcessor,   ///< core/chip faults, machine checks
  kNetwork,     ///< torus link errors, retransmits, link failures
  kIo,          ///< I/O node, PCIe, filesystem errors
  kSoftware,    ///< kernel/control-system software errors
  kPower,       ///< power domain faults
  kCooling,     ///< coolant flow/temperature faults
  kControl,     ///< control network / service actions
};

/// Canonical name ("MEMORY", "PROCESSOR", ...).
std::string_view category_token(Category category);

/// category_token as a string.
std::string category_name(Category category);

/// Parses the canonical name; throws ParseError.
Category category_from_name(std::string_view name);

inline constexpr Category kAllCategories[] = {
    Category::kMemory, Category::kProcessor, Category::kNetwork,
    Category::kIo,     Category::kSoftware,  Category::kPower,
    Category::kCooling, Category::kControl};

}  // namespace failmine::raslog
