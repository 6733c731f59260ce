/**
 * @file
 * A small command-line flag parser for the tools: typed options with
 * defaults, `--flag value` / `--flag=value` syntax, automatic --help
 * text, and positional arguments. Deliberately dependency-free and
 * testable (parse() reports errors instead of exiting).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace cgct {

/** Declarative command-line parser. */
class ArgParser
{
  public:
    explicit ArgParser(std::string program, std::string description = "");

    /** Register options; pointers must outlive parse(). */
    void addFlag(const std::string &name, bool *value,
                 const std::string &help);
    void addU64(const std::string &name, std::uint64_t *value,
                const std::string &help);
    /** As addU64, and a value above UINT_MAX is a bad value. */
    void addUnsigned(const std::string &name, unsigned *value,
                     const std::string &help);
    void addString(const std::string &name, std::string *value,
                   const std::string &help);

    /** Register a positional argument (in order). Optional if @p value
     * already holds a default. */
    void addPositional(const std::string &name, std::string *value,
                       const std::string &help, bool required = false);

    /**
     * Parse argv. @return true on success; on failure @p error_out (if
     * non-null) receives a message. "--help" sets helpRequested().
     */
    bool parse(int argc, const char *const *argv,
               std::string *error_out = nullptr);

    bool helpRequested() const { return helpRequested_; }

    /** True when parse() set option @p name from argv, to any value (its
     *  default included); false for a name never registered. */
    bool given(const std::string &name) const;

    /** Render the --help text. */
    void printHelp(std::ostream &os) const;

  private:
    struct Option {
        std::string name;
        std::string help;
        std::string metavar;
        bool isFlag = false;
        bool given = false;
        std::function<bool(const std::string &)> set;
        std::function<std::string()> show;
    };

    struct Positional {
        std::string name;
        std::string help;
        std::string *value;
        bool required;
    };

    Option *find(const std::string &name);

    /** A `--name N` option; a value above T's maximum is a bad value. */
    template <typename T>
    void addInteger(const std::string &name, T *value,
                    const std::string &help);

    std::string program_;
    std::string description_;
    std::vector<Option> options_;
    std::vector<Positional> positionals_;
    bool helpRequested_ = false;
};

/**
 * Parse an unsigned integer the way every tool flag takes one: decimal,
 * or hex/octal with a 0x/0 prefix. Empty text, a sign, leading space,
 * trailing junk and values above UINT64_MAX are rejected (nullopt), so
 * "-5" cannot wrap to 2^64-5.
 */
std::optional<std::uint64_t> parseU64(const std::string &s);

/** Split a comma-separated option value, dropping empty items. */
std::vector<std::string> splitList(const std::string &s);

} // namespace cgct
