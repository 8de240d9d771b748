// failmine/raslog/component.hpp
//
// Hardware/software components that emit RAS events on a BG/Q system.
// The set mirrors the component field of Mira's RAS log: the compute-node
// kernel, the control system, the compute chip and its memory, the 5D
// torus network, I/O subsystem, power/cooling infrastructure, and so on.

#pragma once

#include <string>
#include <string_view>

namespace failmine::raslog {

enum class Component {
  kCnk,        ///< compute node kernel
  kMmcs,       ///< midplane monitoring and control system
  kMc,         ///< machine controller
  kBqc,        ///< BG/Q compute chip
  kDdr,        ///< DDR3 memory subsystem
  kNd,         ///< 5D torus network device
  kMudm,       ///< messaging unit data mover
  kPci,        ///< PCIe on I/O nodes
  kCard,       ///< node/link card power domain
  kFirmware,   ///< common node firmware
  kLinux,      ///< I/O node Linux
  kGpfs,       ///< parallel filesystem client
  kCoolant,    ///< coolant monitors
  kBulkPower,  ///< bulk power modules
};

/// Canonical upper-case component token ("CNK", "MMCS", ...).
std::string_view component_token(Component component);

/// component_token as a string.
std::string component_name(Component component);

/// Parses the canonical token; throws ParseError.
Component component_from_name(std::string_view name);

/// All components in declaration order.
inline constexpr Component kAllComponents[] = {
    Component::kCnk,  Component::kMmcs,     Component::kMc,
    Component::kBqc,  Component::kDdr,      Component::kNd,
    Component::kMudm, Component::kPci,      Component::kCard,
    Component::kFirmware, Component::kLinux, Component::kGpfs,
    Component::kCoolant,  Component::kBulkPower};

}  // namespace failmine::raslog
