#include "llmprism/common/flags.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace llmprism::cli {

namespace {

template <typename Int>
std::string parse_unsigned(std::string_view value, Int* target) {
  Int out{};
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    return "expected a non-negative integer, got '" + std::string(value) + "'";
  }
  *target = out;
  return {};
}

std::string parse_double(std::string_view value, double* target) {
  // strtod over a NUL-terminated copy: libstdc++ lacks FP from_chars on
  // some of the toolchains this builds with.
  const std::string copy(value);
  char* end = nullptr;
  const double out = std::strtod(copy.c_str(), &end);
  if (end != copy.c_str() + copy.size() || copy.empty()) {
    return "expected a number, got '" + copy + "'";
  }
  *target = out;
  return {};
}

}  // namespace

FlagSet::FlagSet(std::string program) : program_(std::move(program)) {}

void FlagSet::flag(std::string name, std::string value_name, std::string help,
                   std::string* target) {
  custom_flag(std::move(name), std::move(value_name), std::move(help), true,
              [target](std::string_view v) {
                *target = std::string(v);
                return std::string{};
              });
}

void FlagSet::flag(std::string name, std::string help, bool* target) {
  custom_flag(std::move(name), "", std::move(help), false,
              [target](std::string_view) {
                *target = true;
                return std::string{};
              });
}

void FlagSet::flag(std::string name, std::string value_name, std::string help,
                   double* target) {
  custom_flag(std::move(name), std::move(value_name), std::move(help), true,
              [target](std::string_view v) { return parse_double(v, target); });
}

void FlagSet::flag(std::string name, std::string value_name, std::string help,
                   std::uint16_t* target) {
  custom_flag(
      std::move(name), std::move(value_name), std::move(help), true,
      [target](std::string_view v) { return parse_unsigned(v, target); });
}

void FlagSet::flag(std::string name, std::string value_name, std::string help,
                   std::uint32_t* target) {
  custom_flag(
      std::move(name), std::move(value_name), std::move(help), true,
      [target](std::string_view v) { return parse_unsigned(v, target); });
}

void FlagSet::flag(std::string name, std::string value_name, std::string help,
                   std::uint64_t* target) {
  custom_flag(
      std::move(name), std::move(value_name), std::move(help), true,
      [target](std::string_view v) { return parse_unsigned(v, target); });
}

void FlagSet::flag(std::string name, std::string value_name, std::string help,
                   std::optional<double>* target) {
  custom_flag(std::move(name), std::move(value_name), std::move(help), true,
              [target](std::string_view v) {
                double out{};
                std::string err = parse_double(v, &out);
                if (err.empty()) *target = out;
                return err;
              });
}

void FlagSet::custom_flag(std::string name, std::string value_name,
                          std::string help, bool takes_value,
                          std::function<std::string(std::string_view)> parse) {
  flags_.push_back(Flag{std::move(name), std::move(value_name),
                        std::move(help), takes_value, std::move(parse)});
}

void FlagSet::positionals(std::string name, std::size_t min, std::size_t max,
                          std::vector<std::string>* target) {
  positional_name_ = std::move(name);
  positional_min_ = min;
  positional_max_ = max;
  positional_target_ = target;
}

FlagSet::Flag* FlagSet::find(std::string_view name) {
  for (Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

ParseResult FlagSet::parse(int argc, const char* const* argv, int begin) {
  ParseResult result;
  std::vector<std::string> positionals;
  bool only_positionals = false;
  for (int i = begin; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (only_positionals || arg.empty() || arg[0] != '-' || arg == "-") {
      positionals.emplace_back(arg);
      continue;
    }
    if (arg == "--") {
      only_positionals = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      result.help = true;
      return result;
    }
    // Split --name=value once.
    std::string_view name = arg;
    std::optional<std::string_view> inline_value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    Flag* flag = find(name);
    if (flag == nullptr) {
      result.errors.push_back("unknown option '" + std::string(arg) +
                              "' (run '" + program_ + " --help' for usage)");
      result.ok = false;
      // Skip a value the unknown flag probably owned? No: stop guessing,
      // but keep scanning so every unknown option is reported at once.
      continue;
    }
    std::string_view value;
    if (flag->takes_value) {
      if (inline_value) {
        value = *inline_value;
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        result.errors.push_back("missing value for " + flag->name + " <" +
                                flag->value_name + ">");
        result.ok = false;
        continue;
      }
    } else if (inline_value) {
      result.errors.push_back(flag->name + " takes no value");
      result.ok = false;
      continue;
    }
    if (std::string err = flag->parse(value); !err.empty()) {
      result.errors.push_back(flag->name + ": " + err);
      result.ok = false;
    }
  }

  if (positionals.size() < positional_min_) {
    result.errors.push_back("missing <" + positional_name_ + "> argument" +
                            (positional_min_ > 1 ? "s" : ""));
    result.ok = false;
  } else if (positionals.size() > positional_max_) {
    result.errors.push_back(
        "unexpected argument '" + positionals[positional_max_] + "'" +
        (positional_max_ == 0 ? " (this command takes no positionals)" : ""));
    result.ok = false;
  }
  if (positional_target_ != nullptr) {
    *positional_target_ = std::move(positionals);
  }
  return result;
}

std::string FlagSet::usage() const {
  std::ostringstream os;
  os << "usage: " << program_;
  if (positional_max_ > 0) {
    os << (positional_min_ > 0 ? " <" : " [<") << positional_name_
       << (positional_min_ > 0 ? ">" : ">]");
    if (positional_max_ > positional_min_ + 1 || positional_max_ > 1) {
      os << "...";
    }
  }
  if (!flags_.empty()) os << " [options]";
  os << "\noptions:\n";
  std::size_t width = 0;
  std::vector<std::string> heads;
  heads.reserve(flags_.size());
  for (const Flag& f : flags_) {
    std::string head = "  " + f.name;
    if (f.takes_value) head += " <" + f.value_name + ">";
    width = std::max(width, head.size());
    heads.push_back(std::move(head));
  }
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    os << heads[i] << std::string(width - heads[i].size() + 2, ' ')
       << flags_[i].help << '\n';
  }
  return os.str();
}

}  // namespace llmprism::cli
