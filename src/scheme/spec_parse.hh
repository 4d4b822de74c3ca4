/**
 * @file
 * Spec-grammar helpers shared by the built-in scheme families
 * (scheme.cc, dram_scheme.cc). Internal to the scheme module.
 */

#ifndef TDC_SCHEME_SPEC_PARSE_HH
#define TDC_SCHEME_SPEC_PARSE_HH

#include <cstddef>
#include <string>

namespace tdc
{

/** Throw std::invalid_argument "scheme spec \"<spec>\": <what>". */
[[noreturn]] void specError(const std::string &spec,
                            const std::string &what);

/**
 * Parse the decimal @p digits (taken from @p token of @p spec) and
 * check them against [@p lo, @p hi]; malformed or out-of-range values
 * throw through specError quoting @p token.
 */
size_t parseNumber(const std::string &spec, const std::string &token,
                   const std::string &digits, size_t lo, size_t hi);

} // namespace tdc

#endif // TDC_SCHEME_SPEC_PARSE_HH
