#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/assert.hpp"

namespace coupon {

CliFlags& CliFlags::add_int(const std::string& name, std::int64_t default_value,
                            const std::string& help) {
  Flag f;
  f.type = Type::kInt;
  f.help = help;
  f.int_value = default_value;
  COUPON_ASSERT_MSG(flags_.emplace(name, std::move(f)).second,
                    "duplicate flag --" << name);
  order_.push_back(name);
  return *this;
}

CliFlags& CliFlags::add_double(const std::string& name, double default_value,
                               const std::string& help) {
  Flag f;
  f.type = Type::kDouble;
  f.help = help;
  f.double_value = default_value;
  COUPON_ASSERT_MSG(flags_.emplace(name, std::move(f)).second,
                    "duplicate flag --" << name);
  order_.push_back(name);
  return *this;
}

CliFlags& CliFlags::add_bool(const std::string& name, bool default_value,
                             const std::string& help) {
  Flag f;
  f.type = Type::kBool;
  f.help = help;
  f.bool_value = default_value;
  COUPON_ASSERT_MSG(flags_.emplace(name, std::move(f)).second,
                    "duplicate flag --" << name);
  order_.push_back(name);
  return *this;
}

CliFlags& CliFlags::add_string(const std::string& name,
                               const std::string& default_value,
                               const std::string& help) {
  Flag f;
  f.type = Type::kString;
  f.help = help;
  f.string_value = default_value;
  COUPON_ASSERT_MSG(flags_.emplace(name, std::move(f)).second,
                    "duplicate flag --" << name);
  order_.push_back(name);
  return *this;
}

bool CliFlags::set_from_string(Flag& flag, const std::string& text) {
  // std::stoll/std::stod stop at the first character they cannot read;
  // a value is taken only when they read all of it ("50x" is an error,
  // not 50).
  std::size_t parsed = 0;
  try {
    switch (flag.type) {
      case Type::kInt: {
        const auto value = std::stoll(text, &parsed);
        if (parsed != text.size()) {
          return false;
        }
        flag.int_value = value;
        return true;
      }
      case Type::kDouble: {
        const auto value = std::stod(text, &parsed);
        if (parsed != text.size()) {
          return false;
        }
        flag.double_value = value;
        return true;
      }
      case Type::kBool:
        if (text == "true" || text == "1") {
          flag.bool_value = true;
        } else if (text == "false" || text == "0") {
          flag.bool_value = false;
        } else {
          return false;
        }
        return true;
      case Type::kString:
        flag.string_value = text;
        return true;
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

bool CliFlags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stderr);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), usage(argv[0]).c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.type == Type::kBool) {
        flag.bool_value = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!set_from_string(flag, value)) {
      std::fprintf(stderr, "bad value '%s' for flag --%s\n", value.c_str(),
                   name.c_str());
      return false;
    }
  }
  return true;
}

const CliFlags::Flag& CliFlags::find(const std::string& name,
                                     Type type) const {
  auto it = flags_.find(name);
  COUPON_ASSERT_MSG(it != flags_.end(), "flag --" << name << " not registered");
  COUPON_ASSERT_MSG(it->second.type == type,
                    "flag --" << name << " accessed with wrong type");
  return it->second;
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  return find(name, Type::kInt).int_value;
}

double CliFlags::get_double(const std::string& name) const {
  return find(name, Type::kDouble).double_value;
}

bool CliFlags::get_bool(const std::string& name) const {
  return find(name, Type::kBool).bool_value;
}

const std::string& CliFlags::get_string(const std::string& name) const {
  return find(name, Type::kString).string_value;
}

std::string CliFlags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name;
    switch (f.type) {
      case Type::kInt:
        os << "=<int> (default " << f.int_value << ")";
        break;
      case Type::kDouble:
        os << "=<float> (default " << f.double_value << ")";
        break;
      case Type::kBool:
        os << " (default " << (f.bool_value ? "true" : "false") << ")";
        break;
      case Type::kString:
        os << "=<string> (default '" << f.string_value << "')";
        break;
    }
    os << "\n      " << f.help << "\n";
  }
  return os.str();
}

}  // namespace coupon
