#ifndef DIABLO_CORE_CONFIG_HH_
#define DIABLO_CORE_CONFIG_HH_

/**
 * @file
 * Runtime-configurable parameter store, and the readers of every
 * operator input that feeds it.
 *
 * DIABLO's models are parameterized at runtime so that design-space
 * exploration never requires re-synthesis; the software analog is a typed
 * key-value store with dotted parameter names ("switch.rack.buffer_bytes")
 * that model constructors read with defaults.  Its values arrive as
 * command-line assignments, as key=value files (sweep specs, fault
 * plans; Config::fromFile) and as command-line flags (FlagReader); all
 * of them share one strict number syntax (parseUint/parseDouble).
 */

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace diablo {

/**
 * Strict number parses behind every typed read: Config's getters, the
 * command-line flags and the artifact reader.  The whole of @p text
 * must be the number (leading whitespace aside; a 0x prefix reads as
 * hex).  Return nullptr on success, otherwise why @p text is rejected
 * ("is not an unsigned integer"), leaving @p out unchanged.
 */
const char *parseUint(const std::string &text, uint64_t *out);
const char *parseDouble(const std::string &text, double *out);

/**
 * Typed key-value parameter store with dotted names.  It remembers
 * which keys a typed getter has read, so a reader can reject the keys
 * that nothing read (unread()).  The getters are const but record
 * their reads, so a Config is read from one thread at a time.
 */
class Config {
  public:
    Config() = default;

    /**
     * Read a key=value file: one `key = value` assignment per line, `#`
     * starts a comment anywhere on a line, blank lines are skipped and
     * whitespace around the key and the value is trimmed.  Fatal,
     * naming path:line, when the file cannot be read, a line is not an
     * assignment, or a key repeats.  @p order, when given, receives the
     * keys in file order.
     */
    static Config fromFile(const std::string &path,
                           std::vector<std::string> *order = nullptr);

    /** Set a parameter (stored as text, parsed on read). */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, const char *value);
    void set(const std::string &key, int64_t value);
    void set(const std::string &key, uint64_t value);
    void set(const std::string &key, int value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    bool has(const std::string &key) const;

    /**
     * Typed getters; return @p def when the key is absent.  Each marks
     * a present key as read; has() does not.
     */
    std::string getString(const std::string &key,
                          const std::string &def) const;
    uint64_t getUint(const std::string &key, uint64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /**
     * Parse a "key=value" assignment (e.g. a command-line override).
     * Returns false when the token is not of that form.
     */
    bool parseAssignment(const std::string &token);

    /** Merge: entries in @p other override entries here. */
    void merge(const Config &other);

    /** All keys in sorted order (for dumping a run's configuration). */
    std::vector<std::string> keys() const;

    /** The keys starting with @p prefix that no getter has read, in
     *  sorted order. */
    std::vector<std::string> unread(const std::string &prefix) const;

  private:
    /** The value of @p key, marked read; nullptr when absent. */
    const std::string *lookup(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> read_;
};

/**
 * The one command-line flag reader of the tools.  It walks argv from
 * @p first; a flag that takes a value is spelled "--flag value" or
 * "--flag=value".  A missing or malformed value is a usage error: the
 * message names the flag and the process exits 2.
 *
 *   FlagReader f(argc, argv, 1);
 *   while (f.more()) {
 *       if (const char *v = f.value("--out")) { ... continue; }
 *       if (f.value("--jobs", &jobs, 1)) { ... continue; }
 *       if (f.take("--dry-run")) { ... continue; }
 *       const char *positional = f.next();
 *   }
 */
class FlagReader {
  public:
    FlagReader(int argc, char *const *argv, int first)
        : argc_(argc), argv_(argv), i_(first)
    {
    }

    /** True while arguments remain. */
    bool more() const { return i_ < argc_; }

    /** Consume and return the next argument. */
    const char *next() { return argv_[i_++]; }

    /** Consume the next argument when it is exactly @p flag. */
    bool take(const char *flag);

    /**
     * When the next argument is @p flag, consume it with its value and
     * return the value; otherwise consume nothing and return nullptr.
     */
    const char *value(const char *flag);

    /** value() read as an unsigned integer no smaller than @p min. */
    bool value(const char *flag, uint64_t *out, uint64_t min = 0);

    /** value() read as a finite, non-negative number (a duration). */
    bool value(const char *flag, double *out);

  private:
    int argc_;
    char *const *argv_;
    int i_;
};

} // namespace diablo

#endif // DIABLO_CORE_CONFIG_HH_
