#include "telemetry/export.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/fileio.hpp"
#include "common/logging.hpp"

namespace mimoarch::telemetry {

void
appendEscaped(std::string &out, std::string_view s)
{
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
}

namespace {

/** Nanoseconds as microseconds with exactly three decimals (exact
 *  integer arithmetic, so the rendering is bit-stable). */
void
appendMicros(std::string &out, uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000,
                  ns % 1000);
    out += buf;
}

void
appendU64(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

void
appendI64(std::string &out, int64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    out += buf;
}

/** Swap a trailing ".json" for @p suffix (else just append it). */
std::string
sidecarPath(const std::string &path, const std::string &suffix)
{
    const std::string ext = ".json";
    if (path.size() > ext.size() &&
        path.compare(path.size() - ext.size(), ext.size(), ext) == 0)
        return path.substr(0, path.size() - ext.size()) + suffix;
    return path + suffix;
}

} // namespace

std::string
renderChromeTrace(const TraceBuffer &buffer)
{
    std::string out;
    out.reserve(128 + buffer.size() * 96);
    renderChromeTrace(buffer, [&](std::string_view piece) { out += piece; });
    return out;
}

void
renderChromeTrace(const TraceBuffer &buffer, const PieceSink &sink)
{
    constexpr size_t kPieceBytes = size_t{64} << 10;
    std::string out;
    out.reserve(kPieceBytes + 512);
    out += "{\"traceEvents\":[";
    const size_t n = buffer.size();
    for (size_t i = 0; i < n; ++i) {
        if (out.size() >= kPieceBytes) {
            sink(out);
            out.clear();
        }
        const TraceEvent &e = buffer[i];
        out += i == 0 ? "\n" : ",\n";
        out += "{\"name\":\"";
        appendEscaped(out, e.name);
        out += "\",\"cat\":\"";
        appendEscaped(out, e.category);
        if (e.type == EventType::Complete) {
            out += "\",\"ph\":\"X";
        } else {
            // Thread-scoped instant marks ("s":"t").
            out += "\",\"ph\":\"i\",\"s\":\"t";
        }
        out += "\",\"pid\":1,\"tid\":";
        appendU64(out, e.tid);
        out += ",\"ts\":";
        appendMicros(out, e.tsNs);
        if (e.type == EventType::Complete) {
            out += ",\"dur\":";
            appendMicros(out, e.durNs);
        }
        if (e.argKey != nullptr) {
            out += ",\"args\":{\"";
            appendEscaped(out, e.argKey);
            out += "\":";
            appendI64(out, e.argValue);
            out += "}";
        }
        out += "}";
    }
    out += "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"schema\":1,"
           "\"events\":";
    appendU64(out, n);
    out += ",\"dropped\":";
    appendU64(out, buffer.dropped());
    out += "}}\n";
    sink(out);
}

std::string
renderMetricsJson(const Registry &reg)
{
    std::string out;
    out += "{\n\"schema\": 2,\n\"counters\": {";
    const char *sep = "\n";
    for (const auto &[name, value] : reg.counters()) {
        out += sep;
        sep = ",\n";
        out += "\"";
        appendEscaped(out, name);
        out += "\": ";
        appendU64(out, value);
    }
    out += "\n},\n\"histograms\": {";
    sep = "\n";
    for (const auto &[name, h] : reg.histograms()) {
        out += sep;
        sep = ",\n";
        out += "\"";
        appendEscaped(out, name);
        out += "\": {\"count\":";
        appendU64(out, h.count);
        out += ",\"sum\":";
        appendU64(out, h.sum);
        out += ",\"min\":";
        appendU64(out, h.count ? h.min : 0);
        out += ",\"max\":";
        appendU64(out, h.max);
        out += ",\"p50\":";
        appendU64(out, h.quantile(0.50));
        out += ",\"p90\":";
        appendU64(out, h.quantile(0.90));
        out += ",\"p99\":";
        appendU64(out, h.quantile(0.99));
        out += ",\"buckets\":{";
        bool first = true;
        for (size_t b = 0; b < Histogram::kBuckets; ++b) {
            if (h.buckets[b] == 0)
                continue;
            if (!first)
                out += ",";
            first = false;
            out += "\"";
            appendU64(out, b);
            out += "\":";
            appendU64(out, h.buckets[b]);
        }
        out += "}}";
    }
    out += "\n}\n}\n";
    return out;
}

void
writeReports(const std::string &path)
{
    trace().stop();
    const std::string metrics_path = sidecarPath(path, ".metrics.json");
    // Atomic tmp+rename: these run at SweepRunner destruction time, so
    // a crash or kill mid-write must not leave a torn half-report where
    // a previous good one stood.
    if (!writeFileAtomic(path, [](const PieceSink &sink) {
            renderChromeTrace(trace(), sink);
        }))
        fatal("telemetry: cannot write trace to ", path);
    if (!writeFileAtomic(metrics_path, renderMetricsJson(registry())))
        fatal("telemetry: cannot write metrics to ", metrics_path);
    if (trace().dropped() > 0) {
        warn("telemetry: trace buffer overflowed; ", trace().dropped(),
             " events dropped (see otherData.dropped)");
    }
    inform("telemetry: wrote ", path, " (chrome://tracing) and ",
           metrics_path);
}

} // namespace mimoarch::telemetry
