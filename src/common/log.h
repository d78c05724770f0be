/**
 * @file
 * Status-message and error-reporting helpers, following the gem5
 * convention: inform() for status, warn() for suspicious-but-survivable
 * conditions, fatal() for user errors (config mistakes), and panic()
 * for internal invariant violations (simulator bugs).
 */

#ifndef MOCA_COMMON_LOG_H
#define MOCA_COMMON_LOG_H

#include <cstdarg>
#include <string>

namespace moca {

/** Verbosity levels for inform() output. */
enum class LogLevel { Quiet = 0, Normal = 1, Verbose = 2 };

/** Set the global verbosity; messages above this level are dropped. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/**
 * Print an informational status message (printf-style).
 * Shown at LogLevel::Normal and above.
 */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Print a detailed status message (printf-style).
 * Shown only at LogLevel::Verbose.
 */
void verbose(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Warn about a condition that may indicate a problem but does not stop
 * the simulation.
 */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate due to a user-caused error (bad configuration, invalid
 * arguments).  Exits with status 1.
 */
[[noreturn]]
void fatal(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Terminate due to an internal invariant violation, i.e. a simulator
 * bug that should never happen regardless of user input.  Aborts.
 */
[[noreturn]]
void panic(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** strprintf() over a va_list, for printf-style wrappers. */
std::string vstrprintf(const char *fmt, va_list ap)
    __attribute__((format(printf, 1, 0)));

} // namespace moca

#endif // MOCA_COMMON_LOG_H
