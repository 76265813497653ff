/**
 * @file
 * The two telemetry exporters (schemas pinned byte-for-byte by
 * tests/telemetry/exporter_golden_test.cpp):
 *
 *   - renderChromeTrace: a chrome://tracing / Perfetto JSON object
 *     with one Complete ("ph":"X") or Instant ("ph":"i") event per
 *     recorded TraceEvent, timestamps in microseconds at nanosecond
 *     resolution.
 *   - renderMetricsJson: a flat, name-sorted metrics document
 *     (counters, histogram summaries) that benches write as a
 *     sidecar and diff across runs.
 *
 * Exporting allocates freely — it runs after the instrumented work has
 * quiesced, never on the hot path.
 */

#pragma once

#include <string>
#include <string_view>

#include "common/fileio.hpp"
#include "telemetry/telemetry.hpp"

namespace mimoarch::telemetry {

/**
 * Append @p s to @p out as the body of a JSON string: '"' and '\' are
 * backslash-escaped, and bytes below 0x20 become \u00XX.
 */
void appendEscaped(std::string &out, std::string_view s);

/** Chrome trace JSON for @p buffer's events (stable byte-for-byte). */
std::string renderChromeTrace(const TraceBuffer &buffer);

/**
 * The same bytes, passed to @p sink in pieces of about 64 KiB, so a
 * trace of any length is rendered in bounded memory.
 */
void renderChromeTrace(const TraceBuffer &buffer, const PieceSink &sink);

/** Flat metrics JSON for @p reg (name-sorted, stable byte-for-byte). */
std::string renderMetricsJson(const Registry &reg);

/**
 * Write the global trace to @p path and the global registry's metrics
 * to "<path base>.metrics.json" (e.g. out.json -> out.metrics.json).
 * Stops the trace buffer first so late events cannot tear the export;
 * the trace goes to the file piece by piece, never whole in memory.
 */
void writeReports(const std::string &path);

} // namespace mimoarch::telemetry
