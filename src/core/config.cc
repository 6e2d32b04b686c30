#include "core/config.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/log.hh"

namespace diablo {

namespace {

std::string
trimmed(const std::string &s)
{
    const size_t first = s.find_first_not_of(" \t\r\n");
    if (first == std::string::npos) {
        return "";
    }
    return s.substr(first, s.find_last_not_of(" \t\r\n") - first + 1);
}

/** The typed read of @p key's @p text (nullptr when absent); fatal,
 *  naming the key, on a bad value. */
template <typename T>
T
typedValue(const std::string *text, const std::string &key, T def,
           const char *(*parse)(const std::string &, T *))
{
    if (text == nullptr) {
        return def;
    }
    T v = def;
    if (const char *why = parse(*text, &v)) {
        fatal("Config: parameter '%s' = '%s' %s", key.c_str(),
              text->c_str(), why);
    }
    return v;
}

[[noreturn]] __attribute__((format(printf, 1, 2))) void
usageError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    std::exit(2);
}

} // namespace

const char *
parseUint(const std::string &text, uint64_t *out)
{
    // strtoull silently wraps negative input ("-1" -> 2^64-1); reject
    // a leading sign before it gets the chance.
    const char *s = text.c_str();
    while (std::isspace(static_cast<unsigned char>(*s))) {
        ++s;
    }
    if (*s == '-') {
        return "is negative, expected an unsigned integer";
    }
    char *end = nullptr;
    errno = 0;
    const uint64_t v = std::strtoull(s, &end, 0);
    if (end == s || end != text.c_str() + text.size()) {
        return "is not an unsigned integer";
    }
    if (errno == ERANGE) {
        return "is out of uint64 range";
    }
    *out = v;
    return nullptr;
}

const char *
parseDouble(const std::string &text, double *out)
{
    const char *s = text.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || end != s + text.size()) {
        return "is not a number";
    }
    // ERANGE covers both overflow (±HUGE_VAL) and harmless underflow
    // to a denormal; only the former silently corrupts a parameter.
    if (errno == ERANGE && std::fabs(v) == HUGE_VAL) {
        return "overflows a double";
    }
    *out = v;
    return nullptr;
}

Config
Config::fromFile(const std::string &path, std::vector<std::string> *order)
{
    std::ifstream in(path);
    Config cfg;
    std::string line;
    for (size_t lineno = 1; std::getline(in, line); ++lineno) {
        line = trimmed(line.substr(0, line.find('#')));
        if (line.empty()) {
            continue;
        }
        const size_t eq = line.find('=');
        const std::string key = trimmed(line.substr(0, eq));
        const std::string value =
            eq == std::string::npos ? "" : trimmed(line.substr(eq + 1));
        if (key.empty() || value.empty()) {
            fatal("%s:%zu: expected key = value, got '%s'", path.c_str(),
                  lineno, line.c_str());
        }
        if (!cfg.values_.emplace(key, value).second) {
            fatal("%s:%zu: duplicate key '%s'", path.c_str(), lineno,
                  key.c_str());
        }
        if (order != nullptr) {
            order->push_back(key);
        }
    }
    // Only a clean end of file ends the loop with eof set; a file that
    // would not open or read (a directory) must not read as empty.
    if (!in.eof()) {
        fatal("cannot read '%s': %s", path.c_str(), std::strerror(errno));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, const char *value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, uint64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, int value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

const std::string *
Config::lookup(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        return nullptr;
    }
    read_.insert(key);
    return &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const std::string *v = lookup(key);
    return v == nullptr ? def : *v;
}

uint64_t
Config::getUint(const std::string &key, uint64_t def) const
{
    return typedValue(lookup(key), key, def, parseUint);
}

double
Config::getDouble(const std::string &key, double def) const
{
    return typedValue(lookup(key), key, def, parseDouble);
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const std::string *text = lookup(key);
    if (text == nullptr) {
        return def;
    }
    const std::string &v = *text;
    if (v == "true" || v == "1" || v == "yes" || v == "on") {
        return true;
    }
    if (v == "false" || v == "0" || v == "no" || v == "off") {
        return false;
    }
    fatal("Config: parameter '%s' = '%s' is not a boolean",
          key.c_str(), v.c_str());
}

bool
Config::parseAssignment(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
        return false;
    }
    values_[token.substr(0, eq)] = token.substr(eq + 1);
    return true;
}

void
Config::merge(const Config &other)
{
    for (const auto &[k, v] : other.values_) {
        values_[k] = v;
    }
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[k, v] : values_) {
        out.push_back(k);
    }
    return out;
}

std::vector<std::string>
Config::unread(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (auto it = values_.lower_bound(prefix);
         it != values_.end() && it->first.rfind(prefix, 0) == 0; ++it) {
        if (read_.count(it->first) == 0) {
            out.push_back(it->first);
        }
    }
    return out;
}

bool
FlagReader::take(const char *flag)
{
    if (std::strcmp(argv_[i_], flag) != 0) {
        return false;
    }
    ++i_;
    return true;
}

const char *
FlagReader::value(const char *flag)
{
    const char *a = argv_[i_];
    const size_t len = std::strlen(flag);
    if (std::strncmp(a, flag, len) != 0) {
        return nullptr;
    }
    if (a[len] == '=') {
        ++i_;
        return a + len + 1;
    }
    if (a[len] != '\0') {
        return nullptr;
    }
    if (i_ + 1 >= argc_) {
        usageError("%s needs a value", flag);
    }
    i_ += 2;
    return argv_[i_ - 1];
}

bool
FlagReader::value(const char *flag, uint64_t *out, uint64_t min)
{
    const char *v = value(flag);
    if (v == nullptr) {
        return false;
    }
    if (const char *why = parseUint(v, out)) {
        usageError("%s '%s' %s", flag, v, why);
    }
    if (*out < min) {
        usageError("%s must be at least %llu (got '%s')", flag,
                   static_cast<unsigned long long>(min), v);
    }
    return true;
}

bool
FlagReader::value(const char *flag, double *out)
{
    const char *v = value(flag);
    if (v == nullptr) {
        return false;
    }
    const char *why = parseDouble(v, out);
    if (why == nullptr && !(std::isfinite(*out) && *out >= 0.0)) {
        why = "is not a finite number >= 0";
    }
    if (why != nullptr) {
        usageError("%s '%s' %s", flag, v, why);
    }
    return true;
}

} // namespace diablo
