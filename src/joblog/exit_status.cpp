#include "joblog/exit_status.hpp"

#include "util/error.hpp"

namespace failmine::joblog {

std::string_view exit_class_token(ExitClass cls) {
  switch (cls) {
    case ExitClass::kSuccess: return "SUCCESS";
    case ExitClass::kUserAppError: return "USER_APP_ERROR";
    case ExitClass::kUserConfigError: return "USER_CONFIG_ERROR";
    case ExitClass::kUserKill: return "USER_KILL";
    case ExitClass::kWalltimeLimit: return "WALLTIME_LIMIT";
    case ExitClass::kSystemHardware: return "SYSTEM_HARDWARE";
    case ExitClass::kSystemSoftware: return "SYSTEM_SOFTWARE";
    case ExitClass::kSystemIo: return "SYSTEM_IO";
  }
  throw failmine::DomainError("unknown exit class");
}

std::string exit_class_name(ExitClass cls) {
  return std::string(exit_class_token(cls));
}

ExitClass exit_class_from_name(std::string_view name) {
  for (ExitClass c : kAllExitClasses)
    if (exit_class_token(c) == name) return c;
  throw failmine::ParseError("unknown exit class: '" + std::string(name) + "'");
}

bool is_failure(ExitClass cls) { return cls != ExitClass::kSuccess; }

bool is_user_caused(ExitClass cls) {
  switch (cls) {
    case ExitClass::kUserAppError:
    case ExitClass::kUserConfigError:
    case ExitClass::kUserKill:
    case ExitClass::kWalltimeLimit:
      return true;
    default:
      return false;
  }
}

bool is_system_caused(ExitClass cls) {
  switch (cls) {
    case ExitClass::kSystemHardware:
    case ExitClass::kSystemSoftware:
    case ExitClass::kSystemIo:
      return true;
    default:
      return false;
  }
}

ExitClass classify_exit(int exit_code, int signal, bool system_attributed,
                        bool io_attributed, bool software_attributed) {
  if (system_attributed) {
    if (io_attributed) return ExitClass::kSystemIo;
    if (software_attributed) return ExitClass::kSystemSoftware;
    return ExitClass::kSystemHardware;
  }
  if (exit_code == 0 && signal == 0) return ExitClass::kSuccess;
  if (exit_code == 24) return ExitClass::kWalltimeLimit;  // Cobalt walltime marker
  if (signal == 2 || signal == 15) return ExitClass::kUserKill;
  if (exit_code >= 125 && exit_code < 128) return ExitClass::kUserConfigError;
  return ExitClass::kUserAppError;
}

}  // namespace failmine::joblog
