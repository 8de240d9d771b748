// failmine/joblog/exit_status.hpp
//
// Exit-status taxonomy for Cobalt job records.
//
// The paper's takeaway T-A rests on classifying the 99,245 failed jobs by
// their exit codes into *user-caused* failures (bugs in code, wrong
// configuration, misoperations — 99.4 %) versus *system-caused* failures
// (0.6 %). We model the taxonomy as an exit class enum plus the mapping
// from (exit_code, signal) pairs to classes, mirroring how the study
// groups Cobalt's recorded statuses.

#pragma once

#include <string>
#include <string_view>

namespace failmine::joblog {

/// Broad outcome classes of a job, as derived from its exit status.
enum class ExitClass {
  kSuccess,         ///< exit code 0
  kUserAppError,    ///< nonzero application exit code (bug in code)
  kUserConfigError, ///< launch/env misconfiguration (runjob refused, env)
  kUserKill,        ///< user or operator killed the job (SIGINT/SIGTERM/qdel)
  kWalltimeLimit,   ///< scheduler killed the job at its walltime limit
  kSystemHardware,  ///< node/network/memory hardware fault killed the job
  kSystemSoftware,  ///< system-software fault (kernel, control system)
  kSystemIo,        ///< I/O subsystem failure (ION, filesystem)
};

/// Canonical name ("SUCCESS", "USER_APP_ERROR", ...).
std::string_view exit_class_token(ExitClass cls);

/// exit_class_token as a string.
std::string exit_class_name(ExitClass cls);

/// Parses the canonical name; throws ParseError.
ExitClass exit_class_from_name(std::string_view name);

/// All classes, stable order.
inline constexpr ExitClass kAllExitClasses[] = {
    ExitClass::kSuccess,        ExitClass::kUserAppError,
    ExitClass::kUserConfigError, ExitClass::kUserKill,
    ExitClass::kWalltimeLimit,  ExitClass::kSystemHardware,
    ExitClass::kSystemSoftware, ExitClass::kSystemIo};

/// A failed job (anything but success).
bool is_failure(ExitClass cls);

/// The paper's user/system attribution: user behaviour covers app errors,
/// config errors, kills and walltime overruns.
bool is_user_caused(ExitClass cls);

/// System-caused failure classes.
bool is_system_caused(ExitClass cls);

/// Derives the class from a Cobalt-style (exit_code, signal) pair.
///
/// Conventions (modeled on Cobalt/runjob):
///   code 0,  signal 0     -> SUCCESS
///   signal 9 after a scheduler walltime kill marker (code 24) -> WALLTIME
///   signal 2/15 (INT/TERM) -> USER_KILL
///   code in [125, 128)    -> USER_CONFIG (launcher could not start app)
///   signal in {7, 10, 11} on hardware-error nodes is recorded by the
///     control system as code 139/135 w/ system flag; we take an explicit
///     `system_attributed` hint carried by the record instead of guessing.
ExitClass classify_exit(int exit_code, int signal, bool system_attributed,
                        bool io_attributed = false,
                        bool software_attributed = false);

}  // namespace failmine::joblog
