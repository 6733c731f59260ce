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
    void addDouble(const std::string &name, double *value,
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

    /** Render the --help text. */
    void printHelp(std::ostream &os) const;

  private:
    struct Option {
        std::string name;
        std::string help;
        std::string metavar;
        bool isFlag = false;
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

    std::string program_;
    std::string description_;
    std::vector<Option> options_;
    std::vector<Positional> positionals_;
    bool helpRequested_ = false;
};

/** Split a comma-separated option value, dropping empty items. */
std::vector<std::string> splitList(const std::string &s);

} // namespace cgct
