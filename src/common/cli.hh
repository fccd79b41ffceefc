/**
 * @file
 * The one strict command-line parser shared by every bench, example
 * and tool.  A caller declares its boolean flags, its valued options
 * and how many positional arguments it takes; typed accessors then
 * read the values with range checks.
 *
 * Anything else is a usage error: an unknown flag, a repeated flag, a
 * flag missing its value, a malformed or out-of-range value, or an
 * excess positional prints "<prog>: <reason>: <arg>" and the usage
 * text to stderr, then exits with status 2 -- before the program opens
 * a socket or simulates anything.  A misspelled or stale flag must
 * fail loudly, never quietly run a different experiment from the one
 * typed.
 */

#ifndef PITON_COMMON_CLI_HH
#define PITON_COMMON_CLI_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace piton::cli
{

/** Largest count any option accepts; fits every int, unsigned and
 *  uint32_t field a count lands in. */
inline constexpr std::uint64_t kMaxCount = 0x7fffffff;

/** What one parse accepts. */
struct Spec
{
    /** Boolean flags, e.g. "--verify". */
    std::vector<std::string_view> flags;
    /** Options that consume the next argument, e.g. "--port". */
    std::vector<std::string_view> options;
    /** Positional arguments allowed. */
    std::size_t maxPositionals = 0;
    /** Stop at the first positional (a subcommand): it becomes
     *  positionals[0], and next() indexes the argument after it, where
     *  the subcommand's own parse starts. */
    bool stopAtPositional = false;
};

/** A parsed command line.  An accessor that rejects a value exits 2. */
class Args
{
  public:
    /** Positional arguments, in order. */
    std::vector<std::string> positionals;

    /** True when the flag or option was given. */
    bool hasFlag(std::string_view name) const;
    /** The option's text, or `def` when it was not given. */
    std::string optionValue(std::string_view name, std::string def = {}) const;

    /** Unsigned integer in [lo, hi], decimal or 0x-prefixed hex. */
    std::uint64_t number(std::string_view name, std::uint64_t def,
                         std::uint64_t lo, std::uint64_t hi) const;
    /** Finite double in [lo, hi]. */
    double real(std::string_view name, double def,
                double lo = std::numeric_limits<double>::lowest(),
                double hi = std::numeric_limits<double>::max()) const;
    /** Comma-separated TCP ports, each in [1, 65535]; empty when the
     *  option was not given. */
    std::vector<std::uint16_t> ports(std::string_view name) const;
    /** Index in `names` of the option's value (or of `def`). */
    std::size_t choice(std::string_view name,
                       const std::vector<std::string> &names,
                       const std::string &def) const;

    /** The same checks on text that is not an option value (a
     *  positional); `what` names it in the error. */
    std::uint64_t toNumber(std::string_view what, const std::string &text,
                           std::uint64_t lo, std::uint64_t hi) const;
    std::size_t toChoice(std::string_view what, const std::string &text,
                         const std::vector<std::string> &names) const;

    /** argv index after a stopAtPositional parse stopped. */
    int next() const { return next_; }

    /** Print "<prog>: <reason>: <arg>" and the usage, then exit 2. */
    [[noreturn]] void fail(std::string_view reason,
                           std::string_view arg) const;

  private:
    friend Args parse(int argc, char *const *argv, const Spec &spec,
                      std::string usage, int first);

    const std::string *find(std::string_view name) const;

    std::string prog_;
    std::string usage_;
    /** Flags and options seen, each with its value ("" for a flag). */
    std::vector<std::pair<std::string, std::string>> seen_;
    int next_ = 0;
};

/**
 * Parse argv[first, argc) against `spec`.  `usage` is printed after
 * "usage: <prog> " on any error, so it starts with the synopsis.
 */
Args parse(int argc, char *const *argv, const Spec &spec, std::string usage,
           int first = 1);

} // namespace piton::cli

#endif // PITON_COMMON_CLI_HH
