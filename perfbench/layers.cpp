/**
 * @file
 * pb_layers — the traced run's layer waterfall.  Times calls into each
 * layer's public functions from outside, on the inputs run.py prepared,
 * and records a span around every timed call.
 *
 *   pb_layers SPEC OUT
 *
 * SPEC lines (tab-separated; query lists joined by \x1f):
 *   doc      PATH          a large document: kernels, intervals, pairing
 *   query    PATH QUERY    a solo query: count / collect engine passes
 *   early    PATH QUERY    an early-answer probe: bytes read vs size
 *   multi    PATH QUERIES  one MultiStreamer pass vs the solo passes
 *   feed     PATH QUERY    NDJSON: record splitting, per-record runs
 *   direct   PATH COUNT QUERIES  a service request (COUNT 1: count
 *                          only): the in-process engine floor
 *   indexdoc PATH QUERY    a doc= body: index build and warm query
 *   compile  QUERYLIST     a comma-joined list: parse + QuerySet
 * OUT receives {"metrics": {name: [value, unit]}, "solo_ms": {...},
 * "spans": [...]}.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common.h"
#include "index/structural_index.h"
#include "intervals/chunk_source.h"
#include "intervals/classifier.h"
#include "intervals/cursor.h"
#include "json/writer.h"
#include "kernels/kernel.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "service/protocol.h"
#include "ski/multi.h"
#include "ski/record_reader.h"
#include "ski/skipper.h"
#include "ski/streamer.h"

using namespace jsonski;
using namespace perfbench;

namespace {

constexpr int kReps = 5;

struct Span
{
    int64_t id, parent;
    std::string name;
    int64_t start, end;
};

std::vector<Span> g_spans;

int64_t
openSpan(const std::string& name, int64_t parent)
{
    g_spans.push_back({static_cast<int64_t>(g_spans.size()) + 1, parent,
                       name, nowNs(), 0});
    return g_spans.back().id;
}

void
closeSpan(int64_t id)
{
    g_spans[static_cast<size_t>(id - 1)].end = nowNs();
}

/** Median wall time of @p reps calls of @p fn, one span per call. */
template <typename Fn>
double
medianNs(const std::string& name, int64_t parent, int reps, Fn&& fn)
{
    std::vector<int64_t> ns;
    for (int r = 0; r < reps; ++r) {
        int64_t id = openSpan(name, parent);
        int64_t t0 = nowNs();
        fn();
        ns.push_back(nowNs() - t0);
        closeSpan(id);
    }
    std::sort(ns.begin(), ns.end());
    size_t n = ns.size();
    return n % 2 ? static_cast<double>(ns[n / 2])
                 : (ns[n / 2 - 1] + ns[n / 2]) / 2.0;
}

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

std::vector<std::string>
splitUnit(const std::string& s)
{
    std::string t = s;
    std::replace(t.begin(), t.end(), '\x1f', '\t');
    return splitTabs(t);
}

/** A sink-free multi-query consumer (counts only). */
class NullMultiSink : public ski::MultiSink
{
  public:
    void onMatch(size_t, std::string_view) override {}
};

class CollectMultiSink : public ski::MultiSink
{
  public:
    void
    onMatch(size_t, std::string_view v) override
    {
        values.emplace_back(v);
    }
    std::vector<std::string> values;
};

int
run(const std::string& spec_path, const std::string& out_path)
{
    std::map<std::string, std::string> files;
    auto file = [&](const std::string& p) -> const std::string& {
        auto it = files.find(p);
        if (it == files.end())
            it = files.emplace(p, readFile(p)).first;
        return it->second;
    };
    std::vector<std::vector<std::string>> lines;
    {
        std::istringstream spec(readFile(spec_path));
        for (std::string l; std::getline(spec, l);)
            if (!l.empty())
                lines.push_back(splitTabs(l));
    }
    auto each = [&](const char* kind, auto&& fn) {
        for (const auto& f : lines)
            if (f[0] == kind)
                fn(f);
    };

    std::map<std::string, std::pair<double, std::string>> m;
    std::map<std::string, double> solo_ms;
    uint64_t sink_guard = 0;

    // kernels + intervals + pairing over the large documents.
    double doc_bytes = 0, raw_ns = 0, read_ns = 0, cls_ns = 0, pair_ns = 0;
    int64_t g_kernels = openSpan("kernels", 0);
    each("doc", [&](const std::vector<std::string>& f) {
        const std::string& d = file(f[1]);
        size_t blocks = d.size() / intervals::kBlockSize;
        doc_bytes += static_cast<double>(d.size());
        const kernels::Kernel& k = kernels::active();
        raw_ns += medianNs("kernels.raw_bits", g_kernels, kReps, [&] {
            uint64_t acc = 0;
            for (size_t b = 0; b < blocks; ++b) {
                kernels::RawBits64 r =
                    k.raw_bits(d.data() + b * intervals::kBlockSize);
                acc ^= r.quote ^ r.backslash ^ r.open_brace ^ r.comma ^
                       r.colon ^ r.close_bracket;
            }
            sink_guard += acc;
        });
    });
    closeSpan(g_kernels);
    int64_t g_intervals = openSpan("intervals", 0);
    each("doc", [&](const std::vector<std::string>& f) {
        const std::string& d = file(f[1]);
        read_ns += medianNs("intervals.read", g_intervals, kReps, [&] {
            FilePtr fp = openFile(f[1]);
            intervals::FileSource src(fp.get());
            std::vector<char> buf(size_t{1} << 16);
            size_t total = 0;
            for (size_t n; (n = src.read(buf.data(), buf.size())) > 0;)
                total += n;
            sink_guard += total;
        });
        size_t blocks = d.size() / intervals::kBlockSize;
        cls_ns += medianNs("intervals.classify", g_intervals, kReps, [&] {
            intervals::ClassifierCarry carry;
            uint64_t acc = 0;
            for (size_t b = 0; b < blocks; ++b)
                acc ^= intervals::classifyBlock(
                           d.data() + b * intervals::kBlockSize, carry)
                           .in_string;
            sink_guard += acc;
        });
    });
    closeSpan(g_intervals);

    // ski: pairing, solo count / collect, fast-forward and ingest counts.
    int64_t g_ski = openSpan("ski", 0);
    each("doc", [&](const std::vector<std::string>& f) {
        const std::string& d = file(f[1]);
        pair_ns += medianNs("ski.pair", g_ski, kReps, [&] {
            intervals::StreamCursor cur(d);
            ski::Skipper sk(cur);
            sk.overValue(ski::Group::G2);
            sink_guard += cur.pos();
        });
    });
    double q_bytes = 0, count_ns = 0, collect_ns = 0, ff_input = 0;
    ski::FastForwardStats ff;
    uint64_t refills = 0, spill = 0;
    size_t window_peak = 0;
    each("query", [&](const std::vector<std::string>& f) {
        const std::string& d = file(f[1]);
        ski::Streamer s(path::parse(f[2]));
        double ns = medianNs("ski.count", g_ski, kReps, [&] {
            sink_guard += s.run(d).matches;
        });
        count_ns += ns;
        solo_ms[f[1] + "\t" + f[2]] = ns / 1e6;
        collect_ns += medianNs("ski.collect", g_ski, kReps, [&] {
            ski::CollectSink sink;
            s.run(d, &sink);
            sink_guard += sink.values.size();
        });
        q_bytes += static_cast<double>(d.size());
        ski::StreamResult r = s.run(d);
        ff.merge(r.stats);
        ff_input += static_cast<double>(d.size());
        FilePtr fp = openFile(f[1]);
        intervals::FileSource src(fp.get());
        int64_t id = openSpan("ski.chunked", g_ski);
        ski::StreamResult c = s.run(src, nullptr, 65536);
        closeSpan(id);
        refills += c.ingest.refills;
        spill += c.ingest.spill_bytes;
        window_peak = std::max(window_peak, c.ingest.window_peak);
    });
    double early_ratio_sum = 0;
    int early_n = 0;
    each("early", [&](const std::vector<std::string>& f) {
        const std::string& d = file(f[1]);
        ski::Streamer s(path::parse(f[2]));
        intervals::ViewSource src(d);
        int64_t id = openSpan("ski.early", g_ski);
        ski::StreamResult r = s.run(src, nullptr, 65536);
        closeSpan(id);
        early_ratio_sum += static_cast<double>(r.input_bytes) /
                           static_cast<double>(d.size());
        ++early_n;
    });
    double multi_ns = 0, multi_solo_ns = 0;
    each("multi", [&](const std::vector<std::string>& f) {
        const std::string& d = file(f[1]);
        std::vector<std::string> qs = splitUnit(f[2]);
        ski::MultiStreamer ms(path::QuerySet::fromTexts(qs));
        multi_ns += medianNs("ski.multi", g_ski, kReps, [&] {
            NullMultiSink sink;
            sink_guard += ms.run(d, &sink).input_bytes;
        });
        for (const std::string& q : qs) {
            ski::Streamer s(path::parse(q));
            multi_solo_ns += medianNs("ski.multi_solo", g_ski, kReps, [&] {
                sink_guard += s.run(d).matches;
            });
        }
    });
    double split_bytes = 0, split_ns = 0;
    std::vector<double> record_us;
    each("feed", [&](const std::vector<std::string>& f) {
        split_bytes += static_cast<double>(file(f[1]).size());
        split_ns += medianNs("ski.record_split", g_ski, kReps, [&] {
            FilePtr fp = openFile(f[1]);
            intervals::FileSource src(fp.get());
            ski::RecordReader reader(src);
            std::string_view rec;
            size_t n = 0;
            while (reader.next(rec))
                ++n;
            sink_guard += n;
        });
        ski::Streamer s(path::parse(f[2]));
        FilePtr fp = openFile(f[1]);
        intervals::FileSource src(fp.get());
        ski::RecordReader reader(src);
        std::string_view rec;
        int64_t id = openSpan("ski.record_run", g_ski);
        while (reader.next(rec)) {
            int64_t t0 = nowNs();
            sink_guard += s.run(rec).matches;
            record_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        }
        closeSpan(id);
    });
    closeSpan(g_ski);

    // path: compiling the request query lists.
    int64_t g_path = openSpan("path", 0);
    std::vector<double> compile_us;
    each("compile", [&](const std::vector<std::string>& f) {
        std::vector<std::string> qs = service::splitQueries(f[1]);
        for (int r = 0; r < 20; ++r) {
            int64_t t0 = nowNs();
            sink_guard += path::QuerySet::fromTexts(qs).size();
            compile_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        }
    });
    closeSpan(g_path);

    // index: build once, query warm, over the doc= bodies.
    int64_t g_index = openSpan("index", 0);
    double idx_bytes = 0, build_ns = 0, warm_ns = 0, idx_mem = 0;
    each("indexdoc", [&](const std::vector<std::string>& f) {
        const std::string& d = file(f[1]);
        index::StructuralIndex idx;
        build_ns += medianNs("index.build", g_index, kReps, [&] {
            idx = index::StructuralIndex::build(d);
        });
        ski::Streamer s(path::parse(f[2]));
        warm_ns += medianNs("index.warm", g_index, kReps, [&] {
            sink_guard += s.runIndexed(d, idx).matches;
        });
        idx_bytes += static_cast<double>(d.size());
        idx_mem += static_cast<double>(idx.memoryBytes());
    });
    closeSpan(g_index);

    // service: the in-process engine floor for the nominal requests.
    int64_t g_service = openSpan("service", 0);
    std::vector<double> direct_us;
    each("direct", [&](const std::vector<std::string>& f) {
        const std::string& d = file(f[1]);
        bool count_only = f[2] == "1";
        std::vector<std::string> qs = splitUnit(f[3]);
        int64_t id = openSpan("service.direct", g_service);
        int64_t t0 = nowNs();
        if (qs.size() == 1) {
            ski::CollectSink sink;
            ski::Streamer(path::parse(qs[0]))
                .run(d, count_only ? nullptr : &sink);
            sink_guard += sink.values.size();
        } else {
            CollectMultiSink sink;
            NullMultiSink none;
            ski::MultiStreamer(path::QuerySet::fromTexts(qs))
                .run(d, count_only ? static_cast<ski::MultiSink*>(&none)
                                   : &sink);
            sink_guard += sink.values.size();
        }
        direct_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        closeSpan(id);
    });
    closeSpan(g_service);

    auto need = [](bool ok, const char* what) {
        if (!ok)
            throw std::runtime_error(std::string("spec has no ") + what);
    };
    need(doc_bytes > 0 && q_bytes > 0 && early_n > 0 && multi_ns > 0 &&
             !record_us.empty() && !compile_us.empty() && idx_bytes > 0 &&
             !direct_us.empty(),
         "input for every layer");
    auto gbs = [](double bytes, double ns) { return bytes / ns; };
    m["kernels.raw_bits_gb_s"] = {gbs(doc_bytes, raw_ns), "GB/s"};
    m["intervals.read_gb_s"] = {gbs(doc_bytes, read_ns), "GB/s"};
    m["intervals.classify_gb_s"] = {gbs(doc_bytes, cls_ns), "GB/s"};
    m["intervals.refills"] = {static_cast<double>(refills), "count"};
    m["intervals.spill_bytes"] = {static_cast<double>(spill), "bytes"};
    m["intervals.window_peak_bytes"] = {static_cast<double>(window_peak),
                                        "bytes"};
    m["ski.pair_gb_s"] = {gbs(doc_bytes, pair_ns), "GB/s"};
    m["ski.count_gb_s"] = {gbs(q_bytes, count_ns), "GB/s"};
    m["ski.collect_gb_s"] = {gbs(q_bytes, collect_ns), "GB/s"};
    m["ski.multi_ms"] = {multi_ns / 1e6, "ms"};
    m["ski.multi_solo_ratio"] = {multi_ns / multi_solo_ns, "ratio"};
    for (size_t g = 0; g < ski::kGroupCount; ++g)
        m["ski.g" + std::to_string(g + 1) + "_bytes"] = {
            static_cast<double>(ff.skipped[g]), "bytes"};
    m["ski.ff_ratio"] = {static_cast<double>(ff.total()) / ff_input,
                         "ratio"};
    m["ski.bytes_read_ratio"] = {early_ratio_sum / early_n, "ratio"};
    m["ski.record_split_gb_s"] = {gbs(split_bytes, split_ns), "GB/s"};
    m["ski.record_run_us_p50"] = {percentile(record_us, 50), "us"};
    m["path.compile_us"] = {percentile(compile_us, 50), "us"};
    m["index.build_gb_s"] = {gbs(idx_bytes, build_ns), "GB/s"};
    m["index.warm_gb_s"] = {gbs(idx_bytes, warm_ns), "GB/s"};
    m["index.bytes_ratio"] = {idx_mem / idx_bytes, "ratio"};
    m["service.direct_us_p50"] = {percentile(direct_us, 50), "us"};

    json::Writer w;
    w.beginObject();
    w.key("metrics");
    w.beginObject();
    for (const auto& [name, v] : m) {
        w.key(name);
        w.beginArray();
        w.number(v.first);
        w.string(v.second);
        w.endArray();
    }
    w.endObject();
    w.key("solo_ms");
    w.beginObject();
    for (const auto& [key, ms] : solo_ms) {
        w.key(key);
        w.number(ms);
    }
    w.endObject();
    w.key("spans");
    w.beginArray();
    for (const Span& s : g_spans) {
        w.beginObject();
        w.key("id");
        w.number(s.id);
        w.key("parent");
        w.number(s.parent);
        w.key("name");
        w.string(s.name);
        w.key("start");
        w.number(s.start);
        w.key("end");
        w.number(s.end);
        w.key("req");
        w.null();
        w.endObject();
    }
    w.endArray();
    w.key("sink_guard");
    w.number(static_cast<int64_t>(sink_guard & 0xFFFF));
    w.endObject();
    writeFile(out_path, w.take());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: pb_layers SPEC OUT\n");
        return 2;
    }
    try {
        return run(argv[1], argv[2]);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pb_layers: %s\n", e.what());
        return 1;
    }
}
