/**
 * @file
 * Crash-safe file output. writeFileAtomic() writes to "<path>.tmp" and
 * renames over the destination, so a reader — or a process relaunched
 * after a kill — only ever sees either the previous complete file or
 * the new complete file, never a truncated one. Used by the telemetry
 * exporters, the sweep journal, and the failure reports, all of which
 * may be written while a run is being killed.
 */

#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace mimoarch {

/**
 * Atomically replace @p path with @p contents (write tmp sibling,
 * flush, rename). Returns false (and warns) on any I/O failure; never
 * throws, since several callers run during shutdown paths.
 */
bool writeFileAtomic(const std::string &path, const std::string &contents);

/** Takes a file's contents one piece at a time, in order. */
using PieceSink = std::function<void(std::string_view)>;

/**
 * writeFileAtomic for contents too large to hold at once: @p produce
 * passes them to its sink in pieces, each written to the tmp sibling as
 * it comes, and the rename happens only after the last.
 */
bool writeFileAtomic(const std::string &path,
                     const std::function<void(const PieceSink &)> &produce);

} // namespace mimoarch
