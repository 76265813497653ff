/**
 * @file
 * Status and error reporting in the gem5 idiom.
 *
 * fatal()  — the run cannot continue because of a user error (bad
 *            configuration, invalid arguments); exits with code 1.
 * panic()  — an internal invariant was violated (a bug in this library);
 *            aborts so a debugger or core dump can capture the state.
 * warn()   — something is off but the run can continue.
 * inform() — plain status for the user.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace mimoarch {

namespace detail {

[[noreturn]] void fatalImpl(const std::string &msg);
[[noreturn]] void panicImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Build a message string from streamable parts. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report an unrecoverable user-level error and exit. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::format(std::forward<Args>(args)...));
}

/** Report a library bug and abort. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::format(std::forward<Args>(args)...));
}

/** Warn without stopping. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::format(std::forward<Args>(args)...));
}

/** Print an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::format(std::forward<Args>(args)...));
}

} // namespace mimoarch
