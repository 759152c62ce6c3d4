#ifndef FEDDA_CORE_FLAGS_H_
#define FEDDA_CORE_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"

namespace fedda::core {

/// Minimal `--name=value` command-line parser for the bench and example
/// binaries. Unknown flags are an error so typos in sweep scripts fail fast.
///
/// Usage:
///   FlagParser flags;
///   int rounds = 40;
///   flags.AddInt("rounds", &rounds, "communication rounds");
///   FEDDA_CHECK_OK(flags.Parse(argc, argv));
class FlagParser {
 public:
  FlagParser() = default;
  FlagParser(const FlagParser&) = delete;
  FlagParser& operator=(const FlagParser&) = delete;

  void AddInt(const std::string& name, int64_t* value, const std::string& help);
  void AddInt(const std::string& name, int* value, const std::string& help);
  void AddDouble(const std::string& name, double* value,
                 const std::string& help);
  void AddBool(const std::string& name, bool* value, const std::string& help);
  void AddString(const std::string& name, std::string* value,
                 const std::string& help);

  /// Parses argv; supports `--name=value` and `--help`. On `--help`, prints
  /// usage and returns a non-OK status so the caller can exit. Any other
  /// error is printed to stderr before it is returned.
  [[nodiscard]] Status Parse(int argc, char** argv);

  /// Renders the flag list with defaults and help strings.
  std::string Usage() const;

 private:
  enum class Kind { kInt64, kInt, kDouble, kBool, kString };
  struct Flag {
    Kind kind;
    void* target;
    std::string help;
    std::string default_value;
  };

  void Register(const std::string& name, Kind kind, void* target,
                const std::string& help, std::string default_value);
  Status SetValue(Flag* flag, const std::string& text,
                  const std::string& name);

  std::map<std::string, Flag> flags_;
};

}  // namespace fedda::core

#endif  // FEDDA_CORE_FLAGS_H_
