#include "core/flags.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "core/check.h"
#include "core/string_util.h"

namespace fedda::core {

void FlagParser::Register(const std::string& name, Kind kind, void* target,
                          const std::string& help,
                          std::string default_value) {
  FEDDA_CHECK(flags_.find(name) == flags_.end())
      << "duplicate flag:" << name;
  flags_[name] = Flag{kind, target, help, std::move(default_value)};
}

void FlagParser::AddInt(const std::string& name, int64_t* value,
                        const std::string& help) {
  Register(name, Kind::kInt64, value, help, std::to_string(*value));
}

void FlagParser::AddInt(const std::string& name, int* value,
                        const std::string& help) {
  Register(name, Kind::kInt, value, help, std::to_string(*value));
}

void FlagParser::AddDouble(const std::string& name, double* value,
                           const std::string& help) {
  Register(name, Kind::kDouble, value, help, FormatDouble(*value, 4));
}

void FlagParser::AddBool(const std::string& name, bool* value,
                         const std::string& help) {
  Register(name, Kind::kBool, value, help, *value ? "true" : "false");
}

void FlagParser::AddString(const std::string& name, std::string* value,
                           const std::string& help) {
  Register(name, Kind::kString, value, help, *value);
}

Status FlagParser::SetValue(Flag* flag, const std::string& text,
                            const std::string& name) {
  // strtoll/strtod report overflow only through errno: on ERANGE they
  // return a clamped value (LLONG_MAX, ±HUGE_VAL, or a denormal) that
  // parses "successfully". Without the errno check, --rounds with 20
  // digits silently became LLONG_MAX instead of an error.
  char* end = nullptr;
  errno = 0;
  switch (flag->kind) {
    case Kind::kInt64: {
      int64_t v = std::strtoll(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad integer for --" + name + ": " +
                                       text);
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("integer out of range for --" + name +
                                       ": " + text);
      }
      *static_cast<int64_t*>(flag->target) = v;
      return Status::OK();
    }
    case Kind::kInt: {
      long v = std::strtol(text.c_str(), &end, 10);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad integer for --" + name + ": " +
                                       text);
      }
      // `long` is wider than `int` on LP64, so a value strtol accepts can
      // still truncate in the cast; both failure modes are out-of-range.
      if (errno == ERANGE || v < INT_MIN || v > INT_MAX) {
        return Status::InvalidArgument("integer out of range for --" + name +
                                       ": " + text);
      }
      *static_cast<int*>(flag->target) = static_cast<int>(v);
      return Status::OK();
    }
    case Kind::kDouble: {
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad double for --" + name + ": " +
                                       text);
      }
      if (errno == ERANGE) {
        // Overflow (±HUGE_VAL) or underflow (a denormal or 0 standing in
        // for a value the format cannot represent) — both silently distort
        // the experiment the flag configures.
        return Status::InvalidArgument("double out of range for --" + name +
                                       ": " + text);
      }
      *static_cast<double*>(flag->target) = v;
      return Status::OK();
    }
    case Kind::kBool: {
      if (text == "true" || text == "1") {
        *static_cast<bool*>(flag->target) = true;
      } else if (text == "false" || text == "0") {
        *static_cast<bool*>(flag->target) = false;
      } else {
        return Status::InvalidArgument("bad bool for --" + name + ": " + text);
      }
      return Status::OK();
    }
    case Kind::kString:
      *static_cast<std::string*>(flag->target) = text;
      return Status::OK();
  }
  return Status::Internal("unreachable");
}

Status FlagParser::Parse(int argc, char** argv) {
  // Every error but --help is reported here, once, so a main can just exit.
  auto fail = [](Status status) {
    const std::string& message = status.message();
    std::cerr << message << (message.back() == '\n' ? "" : "\n");
    return status;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << Usage();
      return Status(StatusCode::kFailedPrecondition, "help requested");
    }
    if (!StartsWith(arg, "--")) {
      return fail(Status::InvalidArgument("unexpected argument: " + arg));
    }
    const size_t eq = arg.find('=');
    std::string name, value;
    if (eq == std::string::npos) {
      // `--flag` alone is allowed for bools (meaning true).
      name = arg.substr(2);
      value = "true";
    } else {
      name = arg.substr(2, eq - 2);
      value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return fail(Status::InvalidArgument("unknown flag: --" + name + "\n" +
                                          Usage()));
    }
    if (Status status = SetValue(&it->second, value, name); !status.ok()) {
      return fail(std::move(status));
    }
  }
  return Status::OK();
}

std::string FlagParser::Usage() const {
  std::string out = "Flags:\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name + "  (default: " + flag.default_value + ")  " +
           flag.help + "\n";
  }
  return out;
}

}  // namespace fedda::core
