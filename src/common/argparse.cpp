#include "common/argparse.hpp"

#include <cstdlib>
#include <ostream>
#include <sstream>

namespace cgct {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description))
{
}

void
ArgParser::addFlag(const std::string &name, bool *value,
                   const std::string &help)
{
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.isFlag = true;
    opt.set = [value](const std::string &) {
        *value = true;
        return true;
    };
    opt.show = [value] { return std::string(*value ? "true" : "false"); };
    options_.push_back(std::move(opt));
}

void
ArgParser::addU64(const std::string &name, std::uint64_t *value,
                  const std::string &help)
{
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.metavar = "N";
    opt.set = [value](const std::string &s) {
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(s.c_str(), &end, 0);
        if (end == s.c_str() || *end != '\0')
            return false;
        *value = v;
        return true;
    };
    opt.show = [value] { return std::to_string(*value); };
    options_.push_back(std::move(opt));
}

void
ArgParser::addDouble(const std::string &name, double *value,
                     const std::string &help)
{
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.metavar = "X";
    opt.set = [value](const std::string &s) {
        char *end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        if (end == s.c_str() || *end != '\0')
            return false;
        *value = v;
        return true;
    };
    opt.show = [value] { return std::to_string(*value); };
    options_.push_back(std::move(opt));
}

void
ArgParser::addString(const std::string &name, std::string *value,
                     const std::string &help)
{
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.metavar = "STR";
    opt.set = [value](const std::string &s) {
        *value = s;
        return true;
    };
    opt.show = [value] { return *value; };
    options_.push_back(std::move(opt));
}

void
ArgParser::addPositional(const std::string &name, std::string *value,
                         const std::string &help, bool required)
{
    positionals_.push_back(Positional{name, help, value, required});
}

ArgParser::Option *
ArgParser::find(const std::string &name)
{
    for (auto &opt : options_)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

bool
ArgParser::parse(int argc, const char *const *argv, std::string *error_out)
{
    std::size_t next_positional = 0;
    auto fail = [&](const std::string &msg) {
        if (error_out)
            *error_out = msg;
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            return true;
        }
        if (arg.rfind("--", 0) == 0) {
            std::string name = arg.substr(2);
            std::string value;
            bool has_value = false;
            const auto eq = name.find('=');
            if (eq != std::string::npos) {
                value = name.substr(eq + 1);
                name = name.substr(0, eq);
                has_value = true;
            }
            Option *opt = find(name);
            if (!opt)
                return fail("unknown option --" + name);
            if (opt->isFlag) {
                if (has_value)
                    return fail("option --" + name + " takes no value");
                opt->set("");
                continue;
            }
            if (!has_value) {
                if (i + 1 >= argc)
                    return fail("option --" + name + " needs a value");
                value = argv[++i];
            }
            if (!opt->set(value))
                return fail("bad value '" + value + "' for --" + name);
            continue;
        }
        if (next_positional >= positionals_.size())
            return fail("unexpected argument '" + arg + "'");
        *positionals_[next_positional++].value = arg;
    }

    for (std::size_t i = next_positional; i < positionals_.size(); ++i) {
        if (positionals_[i].required)
            return fail("missing required argument <" +
                        positionals_[i].name + ">");
    }
    return true;
}

void
ArgParser::printHelp(std::ostream &os) const
{
    os << "usage: " << program_;
    for (const auto &p : positionals_)
        os << (p.required ? " <" + p.name + ">" : " [" + p.name + "]");
    os << " [options]\n";
    if (!description_.empty())
        os << "\n" << description_ << "\n";
    if (!positionals_.empty()) {
        os << "\narguments:\n";
        for (const auto &p : positionals_) {
            os << "  " << p.name << "\n      " << p.help << "\n";
        }
    }
    os << "\noptions:\n";
    for (const auto &opt : options_) {
        std::ostringstream left;
        left << "  --" << opt.name;
        if (!opt.isFlag)
            left << " <" << opt.metavar << ">";
        os << left.str() << "\n      " << opt.help << " (default: "
           << opt.show() << ")\n";
    }
    os << "  --help\n      show this message\n";
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

} // namespace cgct
