#include "dcdl/campaign/param.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace dcdl::campaign {

const char* to_string(ParamKind kind) {
  switch (kind) {
    case ParamKind::kInt: return "int";
    case ParamKind::kDouble: return "double";
    case ParamKind::kBool: return "bool";
    case ParamKind::kString: return "string";
  }
  return "?";
}

std::string format_double(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "nan";
  return std::string(buf, end);
}

ParamValue ParamValue::of_int(std::int64_t v) {
  ParamValue p;
  p.kind_ = ParamKind::kInt;
  p.int_ = v;
  return p;
}

ParamValue ParamValue::of_double(double v) {
  ParamValue p;
  p.kind_ = ParamKind::kDouble;
  p.double_ = v;
  return p;
}

ParamValue ParamValue::of_bool(bool v) {
  ParamValue p;
  p.kind_ = ParamKind::kBool;
  p.bool_ = v;
  return p;
}

ParamValue ParamValue::of_string(std::string v) {
  ParamValue p;
  p.kind_ = ParamKind::kString;
  p.string_ = std::move(v);
  return p;
}

ParamValue ParamValue::parse(const std::string& text, std::string* unit) {
  if (unit) unit->clear();
  if (text == "true") return of_bool(true);
  if (text == "false") return of_bool(false);
  // Number with an optional alphabetic unit suffix.
  const char* begin = text.c_str();
  char* end = nullptr;
  const double d = std::strtod(begin, &end);
  // inf/nan are no parameter value: they stay text, which every numeric
  // accessor rejects by name.
  if (end != begin && std::isfinite(d)) {
    std::string rest(end);
    bool alpha = !rest.empty();
    for (const char c : rest) {
      alpha = alpha && (std::isalpha(static_cast<unsigned char>(c)) != 0);
    }
    if (rest.empty() || alpha) {
      if (unit) *unit = rest;
      const bool looks_int =
          text.find('.') == std::string::npos &&
          text.find('e') == std::string::npos &&
          text.find('E') == std::string::npos;
      if (looks_int) {
        // Decimal integer text parses exactly as an integer (a double
        // round trip loses digits past 2^53); hex falls through to double.
        errno = 0;
        char* int_end = nullptr;
        const long long v = std::strtoll(begin, &int_end, 10);
        if (int_end == end) {
          if (errno == ERANGE) {
            throw CampaignError("integer param value '" + text +
                                "' is out of the 64-bit range");
          }
          return of_int(v);
        }
      }
      return of_double(d);
    }
  }
  return of_string(text);
}

std::int64_t ParamValue::as_int() const {
  if (kind_ == ParamKind::kInt) return int_;
  if (kind_ == ParamKind::kDouble) {
    // [-2^63, 2^63): the doubles whose truncation an int64 can hold.
    if (!(double_ >= -9223372036854775808.0 &&
          double_ < 9223372036854775808.0)) {
      throw CampaignError("param value " + format_double(double_) +
                          " is not an integer in the 64-bit range");
    }
    return static_cast<std::int64_t>(double_);
  }
  if (kind_ == ParamKind::kBool) return bool_ ? 1 : 0;
  throw CampaignError("param value '" + string_ + "' is not numeric");
}

double ParamValue::as_double() const {
  if (kind_ == ParamKind::kDouble) return double_;
  if (kind_ == ParamKind::kInt) return static_cast<double>(int_);
  if (kind_ == ParamKind::kBool) return bool_ ? 1 : 0;
  throw CampaignError("param value '" + string_ + "' is not numeric");
}

bool ParamValue::as_bool() const {
  if (kind_ == ParamKind::kBool) return bool_;
  if (kind_ == ParamKind::kInt) return int_ != 0;
  if (kind_ == ParamKind::kString)
    return string_ != "false" && string_ != "0" && string_ != "no";
  throw CampaignError("param value is not a bool");
}

const std::string& ParamValue::as_string() const {
  if (kind_ != ParamKind::kString)
    throw CampaignError("param value is not a string");
  return string_;
}

std::string ParamValue::to_string() const {
  switch (kind_) {
    case ParamKind::kInt: return std::to_string(int_);
    case ParamKind::kDouble: return format_double(double_);
    case ParamKind::kBool: return bool_ ? "true" : "false";
    case ParamKind::kString: return string_;
  }
  return "";
}

std::int64_t ParamMap::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second.as_int();
}

double ParamMap::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second.as_double();
}

bool ParamMap::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second.as_bool();
}

std::string ParamMap::get_string(const std::string& name,
                                 const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second.to_string();
}

}  // namespace dcdl::campaign
