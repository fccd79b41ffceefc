#include "common/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace piton::cli
{

namespace
{

bool
contains(const std::vector<std::string_view> &names, std::string_view name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Strict unsigned parse: digits only (or 0x + hex digits), no sign,
 *  no whitespace, no overflow, and no leading zero, which strtoul's
 *  base 0 would have read as octal. */
bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    const bool hex = text.size() > 2 && text[0] == '0'
                     && (text[1] == 'x' || text[1] == 'X');
    const std::size_t start = hex ? 2 : 0;
    if (text.size() == start || (!hex && text.size() > 1 && text[0] == '0'))
        return false;
    for (std::size_t i = start; i < text.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(text[i]);
        if (!(hex ? std::isxdigit(c) : std::isdigit(c)))
            return false;
    }
    errno = 0;
    out = std::strtoull(text.c_str() + start, nullptr, hex ? 16 : 10);
    return errno != ERANGE;
}

} // namespace

const std::string *
Args::find(std::string_view name) const
{
    for (const auto &[flag, value] : seen_)
        if (flag == name)
            return &value;
    return nullptr;
}

bool
Args::hasFlag(std::string_view name) const
{
    return find(name) != nullptr;
}

std::string
Args::optionValue(std::string_view name, std::string def) const
{
    const std::string *v = find(name);
    return v != nullptr ? *v : def;
}

std::uint64_t
Args::number(std::string_view name, std::uint64_t def, std::uint64_t lo,
             std::uint64_t hi) const
{
    const std::string *v = find(name);
    return v != nullptr ? toNumber(name, *v, lo, hi) : def;
}

std::uint64_t
Args::toNumber(std::string_view what, const std::string &text,
               std::uint64_t lo, std::uint64_t hi) const
{
    std::uint64_t v = 0;
    if (!parseUnsigned(text, v))
        fail("bad numeric value for " + std::string(what), text);
    if (v < lo || v > hi)
        fail(std::string(what) + " out of range [" + std::to_string(lo)
                 + ", " + std::to_string(hi) + "]",
             text);
    return v;
}

double
Args::real(std::string_view name, double def, double lo, double hi) const
{
    const std::string *v = find(name);
    if (v == nullptr)
        return def;
    char *end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (v->empty() || std::isspace(static_cast<unsigned char>((*v)[0]))
        || *end != '\0' || !std::isfinite(d))
        fail("bad numeric value for " + std::string(name), *v);
    if (d < lo || d > hi) {
        char range[64];
        std::snprintf(range, sizeof(range), " out of range [%g, %g]", lo,
                      hi);
        fail(std::string(name) + range, *v);
    }
    return d;
}

std::vector<std::uint16_t>
Args::ports(std::string_view name) const
{
    std::vector<std::uint16_t> out;
    const std::string *v = find(name);
    if (v == nullptr)
        return out;
    std::size_t pos = 0;
    while (true) {
        const std::size_t comma = std::min(v->find(',', pos), v->size());
        const std::string tok = v->substr(pos, comma - pos);
        std::uint64_t port = 0;
        if (!parseUnsigned(tok, port) || port < 1 || port > 65535)
            fail("bad port list for " + std::string(name)
                     + " (ports are 1..65535)",
                 *v);
        out.push_back(static_cast<std::uint16_t>(port));
        if (comma == v->size())
            return out;
        pos = comma + 1;
    }
}

std::size_t
Args::choice(std::string_view name, const std::vector<std::string> &names,
             const std::string &def) const
{
    return toChoice(name, optionValue(name, def), names);
}

std::size_t
Args::toChoice(std::string_view what, const std::string &text,
               const std::vector<std::string> &names) const
{
    const auto it = std::find(names.begin(), names.end(), text);
    if (it == names.end()) {
        std::string list;
        for (const std::string &n : names)
            list += (list.empty() ? "" : "|") + n;
        fail("unknown " + std::string(what) + " (" + list + ")", text);
    }
    return static_cast<std::size_t>(it - names.begin());
}

void
Args::fail(std::string_view reason, std::string_view arg) const
{
    std::fprintf(stderr, "%s: %.*s: %.*s\nusage: %s %s\n", prog_.c_str(),
                 static_cast<int>(reason.size()), reason.data(),
                 static_cast<int>(arg.size()), arg.data(), prog_.c_str(),
                 usage_.c_str());
    std::exit(2);
}

Args
parse(int argc, char *const *argv, const Spec &spec, std::string usage,
      int first)
{
    Args args;
    args.prog_ = argc > 0 ? argv[0] : "piton";
    args.usage_ = std::move(usage);
    for (int i = first; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            if (args.positionals.size() >= spec.maxPositionals
                && !spec.stopAtPositional)
                args.fail("unexpected argument", a);
            args.positionals.push_back(a);
            if (spec.stopAtPositional) {
                args.next_ = i + 1;
                return args;
            }
            continue;
        }
        if (args.hasFlag(a))
            args.fail("duplicate flag", a);
        if (contains(spec.flags, a)) {
            args.seen_.emplace_back(a, std::string());
        } else if (contains(spec.options, a)) {
            if (i + 1 >= argc)
                args.fail("missing value for", a);
            args.seen_.emplace_back(a, argv[++i]);
        } else {
            args.fail("unknown flag", a);
        }
    }
    args.next_ = argc;
    return args;
}

} // namespace piton::cli
