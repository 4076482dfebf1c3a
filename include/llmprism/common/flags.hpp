// Declarative command-line option parser shared by every LLMPrism tool.
//
// Before the subcommand redesign each binary hand-rolled its own
// `else if (arg == "--x")` chain, and several paths fell through unknown
// options silently. FlagSet centralizes the contract:
//   * `--name value` and `--name=value` both work; bool flags take no value;
//   * an unknown option is always an error (callers exit 2 with a usage
//     hint — never silently ignored);
//   * positional arity (min/max) is validated with descriptive messages;
//   * `--help`/`-h` short-circuits parsing (callers print usage, exit 0).
//
// Values are converted with std::from_chars / strtod; a malformed value is
// a parse error naming the flag, never a silent zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace llmprism::cli {

/// Outcome of FlagSet::parse. `ok` is false when any error was recorded;
/// `help` is true when --help/-h appeared (errors are then irrelevant).
struct ParseResult {
  bool ok = true;
  bool help = false;
  std::vector<std::string> errors;
};

class FlagSet {
 public:
  /// `program` names the tool (or subcommand) in messages, e.g.
  /// "prism analyze".
  explicit FlagSet(std::string program);

  // ---- flag registration (name includes the leading "--") ----
  void flag(std::string name, std::string value_name, std::string help,
            std::string* target);
  /// Presence flag: no value; sets *target = true when seen.
  void flag(std::string name, std::string help, bool* target);
  void flag(std::string name, std::string value_name, std::string help,
            double* target);
  void flag(std::string name, std::string value_name, std::string help,
            std::uint16_t* target);
  void flag(std::string name, std::string value_name, std::string help,
            std::uint32_t* target);
  void flag(std::string name, std::string value_name, std::string help,
            std::uint64_t* target);
  void flag(std::string name, std::string value_name, std::string help,
            std::optional<double>* target);
  /// Fully custom flag: `parse` receives the raw value (empty for a
  /// declared-bool custom flag) and returns an error message or "".
  void custom_flag(std::string name, std::string value_name, std::string help,
                   bool takes_value,
                   std::function<std::string(std::string_view)> parse);

  /// Positional arguments land here, in order. Parsing fails when fewer
  /// than `min` or more than `max` appear.
  void positionals(std::string name, std::size_t min, std::size_t max,
                   std::vector<std::string>* target);

  /// Parse argv[begin..argc). Stops collecting flags after "--" (the rest
  /// are positionals, verbatim).
  [[nodiscard]] ParseResult parse(int argc, const char* const* argv,
                                  int begin = 1);

  /// One-line "usage:" header plus an aligned flag table.
  [[nodiscard]] std::string usage() const;

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  struct Flag {
    std::string name;
    std::string value_name;  ///< empty for presence flags
    std::string help;
    bool takes_value = false;
    std::function<std::string(std::string_view)> parse;
  };

  [[nodiscard]] Flag* find(std::string_view name);

  std::string program_;
  std::vector<Flag> flags_;
  std::string positional_name_;
  std::size_t positional_min_ = 0;
  std::size_t positional_max_ = 0;
  std::vector<std::string>* positional_target_ = nullptr;
};

}  // namespace llmprism::cli
