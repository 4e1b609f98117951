/**
 * @file
 * jsq — a command-line JSONPath extractor built on the streaming API.
 *
 * Usage:
 *   jsq <query> [file]         print every match, one per line
 *   jsq -c <query> [file]      print only the match count
 *   jsq -n K <query> [file]    stop after K matches (early termination)
 *   jsq -r <query> [file]      treat input as a stream of records
 *   jsq -s <query> [file]      print the fast-forward statistics
 *   jsq -e <query>             print the evaluation plan and exit
 *   jsq -p <query> [file]      profile: suppress matches, print a JSON
 *                              report (matches, fast-forward bytes and
 *                              ratios per group, telemetry counters) on
 *                              stdout and the plan plus a human-readable
 *                              telemetry report on stderr.  --profile is
 *                              a synonym.  In default builds
 *                              (JSONSKI_TELEMETRY=OFF) the telemetry
 *                              section is present but zeroed.
 *
 * Reads from stdin when no file is given.  Multiple queries may be
 * passed separated by commas; they are evaluated in ONE pass with the
 * multi-query streamer.  Match lines are tagged [qN] with the first
 * command-line position asking for that query — duplicates share one
 * stream, and -c repeats the shared count at every position.
 *
 * Without --chunk-bytes the whole input is resident: a regular file
 * (or stdin redirected from one) is mapped read-only, so its memory is
 * file-backed page cache rather than a private copy; a pipe or tty is
 * read once into memory (intervals/mapped_input.h).
 *
 * --chunk-bytes N switches to bounded-memory ingestion: the input —
 * file, pipe, or stdin — is pulled through the engine in N-byte chunks
 * and is never materialized as a whole; resident memory is bounded by
 * the chunk size plus the largest value span still being emitted
 * (DESIGN.md §9).  With -r, N becomes the record reader's buffer size.
 *
 * Sidecar semi-indexes (DESIGN.md §14), single query + whole document
 * only (not -r, not --chunk-bytes):
 *   --index-save PATH   build a structural index of the input and
 *                       write it to PATH (after running the query warm)
 *   --index-load PATH   load PATH; when it describes the input, answer
 *                       skips from it, else warn and stream
 *   --index-cache       keep the sidecar next to the input file
 *                       (FILE.jski): load when fresh, (re)build and
 *                       save when missing or stale
 */
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "index/structural_index.h"
#include "intervals/chunk_source.h"
#include "intervals/mapped_input.h"
#include "json/writer.h"
#include "kernels/kernel.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "service/protocol.h"
#include "ski/explain.h"
#include "util/parse.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "ski/record_reader.h"
#include "ski/multi.h"
#include "ski/record_scanner.h"
#include "ski/sinks.h"
#include "ski/streamer.h"

using namespace jsonski;

namespace {

struct Options
{
    bool count_only = false;
    bool records = false;
    bool stats = false;
    bool explain_only = false;
    bool profile = false;
    size_t limit = 0;       // 0 = unlimited
    size_t chunk_bytes = 0; // 0 = the whole input resident (mapped)
    std::string index_save;
    std::string index_load;
    bool index_cache = false;
    std::vector<std::string> queries;
    std::string file;

    bool
    usesIndex() const
    {
        return !index_save.empty() || !index_load.empty() || index_cache;
    }
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: jsq [-c] [-r] [-s] [-p] [-n K] "
                 "[--chunk-bytes N]\n"
                 "           [--index-save PATH] [--index-load PATH] "
                 "[--index-cache]\n"
                 "           <query>[,<query>...] [file]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    int i = 1;
    for (; i < argc && argv[i][0] == '-'; ++i) {
        if (std::strcmp(argv[i], "-c") == 0) {
            opt.count_only = true;
        } else if (std::strcmp(argv[i], "-r") == 0) {
            opt.records = true;
        } else if (std::strcmp(argv[i], "-s") == 0) {
            opt.stats = true;
        } else if (std::strcmp(argv[i], "-e") == 0) {
            opt.explain_only = true;
        } else if (std::strcmp(argv[i], "-p") == 0 ||
                   std::strcmp(argv[i], "--profile") == 0) {
            opt.profile = true;
        } else if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
            // Strict parse: '-n 5x' and '-n -1' are usage errors, not
            // silently-accepted garbage ('-n 0' stays "unlimited").
            if (!parseSize(argv[++i], opt.limit)) {
                std::fprintf(stderr, "jsq: bad -n value '%s'\n", argv[i]);
                usage();
            }
        } else if (std::strcmp(argv[i], "--chunk-bytes") == 0 &&
                   i + 1 < argc) {
            if (!parsePositiveSize(argv[++i], opt.chunk_bytes)) {
                std::fprintf(stderr,
                             "jsq: bad --chunk-bytes value '%s'\n",
                             argv[i]);
                usage();
            }
        } else if (std::strcmp(argv[i], "--index-save") == 0 &&
                   i + 1 < argc) {
            opt.index_save = argv[++i];
        } else if (std::strcmp(argv[i], "--index-load") == 0 &&
                   i + 1 < argc) {
            opt.index_load = argv[++i];
        } else if (std::strcmp(argv[i], "--index-cache") == 0) {
            opt.index_cache = true;
        } else {
            usage();
        }
    }
    if (i >= argc)
        usage();
    // Same top-level-comma splitting the jsqd wire protocol uses.
    opt.queries = service::splitQueries(argv[i++]);
    if (i < argc)
        opt.file = argv[i++];
    if (i != argc)
        usage();
    if (opt.usesIndex()) {
        if (opt.records || opt.chunk_bytes != 0 ||
            opt.queries.size() != 1) {
            std::fprintf(stderr,
                         "jsq: --index-* needs a single query over a "
                         "whole document (no -r, no --chunk-bytes)\n");
            usage();
        }
        if (opt.index_cache && opt.file.empty()) {
            std::fprintf(stderr, "jsq: --index-cache needs a file "
                                 "(the sidecar lives next to it)\n");
            usage();
        }
        if (opt.index_cache && !opt.index_load.empty()) {
            std::fprintf(stderr, "jsq: --index-cache and --index-load "
                                 "are mutually exclusive\n");
            usage();
        }
    }
    return opt;
}

/**
 * The whole input as one resident view: the file argument, or stdin
 * without one.  Regular files are mapped, not copied (mapped_input.h).
 */
intervals::MappedInput
loadInput(const Options& opt)
{
    if (opt.file.empty())
        return intervals::MappedInput(STDIN_FILENO);
    return intervals::MappedInput(opt.file);
}

/**
 * The input as a forward-only ChunkSource, for -r and --chunk-bytes:
 * the file argument through a FileSource, or stdin without one.  Open
 * and read failures are the same typed errors as the whole-file path.
 */
class StreamInput
{
  public:
    explicit StreamInput(const Options& opt)
    {
        if (opt.file.empty()) {
            src_ = &cin_.emplace(std::cin);
            return;
        }
        f_ = std::fopen(opt.file.c_str(), "rb");
        if (f_ == nullptr)
            throw intervals::openError(opt.file, errno);
        src_ = &file_.emplace(f_);
    }

    ~StreamInput()
    {
        if (f_ != nullptr)
            std::fclose(f_);
    }

    StreamInput(const StreamInput&) = delete;
    StreamInput& operator=(const StreamInput&) = delete;

    intervals::ChunkSource& source() { return *src_; }

  private:
    std::FILE* f_ = nullptr;
    std::optional<intervals::FileSource> file_;
    std::optional<intervals::IstreamSource> cin_;
    intervals::ChunkSource* src_ = nullptr;
};

/** Print-and-maybe-stop sink used for the single-query path. */
class PrintSink : public path::MatchSink
{
  public:
    PrintSink(bool quiet, size_t limit) : quiet_(quiet), limit_(limit) {}

    void
    onMatch(std::string_view value) override
    {
        ++count;
        if (!quiet_)
            std::fwrite(value.data(), 1, value.size(), stdout),
                std::fputc('\n', stdout);
        if (limit_ != 0 && count >= limit_)
            throw ski::StopStreaming{};
    }

    size_t count = 0;

  private:
    bool quiet_;
    size_t limit_;
};

/**
 * Multi-query print sink.  Frames are tagged with the *representative*
 * command-line position of each distinct query (the first position that
 * asked for it), so `jsq '$.a,$.b,$.a'` labels matches q0/q1 and the
 * duplicate third query shares q0's stream — the same contract jsqd
 * puts on the wire.
 */
class PrintMultiSink : public ski::MultiSink
{
  public:
    PrintMultiSink(bool quiet, std::vector<size_t> tags)
        : quiet_(quiet), tags_(std::move(tags))
    {}

    void
    onMatch(size_t qi, std::string_view value) override
    {
        if (!quiet_) {
            std::printf("[q%zu] ",
                        qi < tags_.size() ? tags_[qi] : qi);
            std::fwrite(value.data(), 1, value.size(), stdout);
            std::fputc('\n', stdout);
        }
    }

  private:
    bool quiet_;
    std::vector<size_t> tags_;
};

/** Per-position count lines for -c: duplicates repeat their count. */
void
printMultiCounts(const std::vector<std::string>& queries,
                 const path::QuerySet& set,
                 const std::vector<size_t>& dist_counts)
{
    for (size_t i = 0; i < queries.size(); ++i)
        std::printf("q%zu %s: %zu\n", i, queries[i].c_str(),
                    dist_counts[set.id_of[i]]);
}

/**
 * -s report for the combined pass: whole-pass fast-forward ratio, the
 * shared-trie shape, and each distinct query's divergent-suffix replay
 * work (zero for queries fully resident in the trie).
 */
void
printMultiStats(const ski::MultiStreamer& ms,
                const ski::MultiStreamer::Result& r,
                size_t input_bytes)
{
    std::fprintf(stderr,
                 "fast-forwarded %.2f%% of %zu bytes; %zu distinct "
                 "queries over %zu trie nodes, %zu divergent "
                 "suffixes\n",
                 r.stats.overallRatio(input_bytes) * 100, input_bytes,
                 ms.queryCount(), ms.trieNodes(), ms.suffixCount());
    for (size_t qi = 0; qi < r.per_query.size(); ++qi) {
        uint64_t replay = r.per_query[qi].total();
        if (replay != 0)
            std::fprintf(stderr,
                         "  q%zu suffix replay fast-forwarded %llu "
                         "bytes\n",
                         qi,
                         static_cast<unsigned long long>(replay));
    }
}

/**
 * Emit the --profile report: a single machine-readable JSON object on
 * stdout plus the human-readable telemetry breakdown on stderr.  Multi-
 * query runs pass the combined pass's whole-run FastForwardStats
 * (suffix replays included).
 */
void
printProfile(const std::string& query, size_t input_bytes, size_t matches,
             const ski::FastForwardStats* stats,
             const telemetry::Registry& reg)
{
    json::Writer w;
    w.beginObject();
    w.key("schema");
    w.string("jsonski-profile-v1");
    w.key("kernel");
    w.string(kernels::activeName());
    w.key("query");
    w.string(query);
    w.key("input_bytes");
    w.number(static_cast<int64_t>(input_bytes));
    w.key("matches");
    w.number(static_cast<int64_t>(matches));
    w.key("telemetry_compiled");
    w.boolean(telemetry::kEnabled);
    if (stats != nullptr) {
        w.key("ff");
        w.beginObject();
        for (size_t g = 0; g < ski::kGroupCount; ++g) {
            auto grp = static_cast<ski::Group>(g);
            char key[16];
            std::snprintf(key, sizeof key, "G%zu", g + 1);
            w.key(key);
            w.number(static_cast<int64_t>(stats->get(grp)));
            std::snprintf(key, sizeof key, "G%zu_ratio", g + 1);
            w.key(key);
            w.number(stats->ratio(grp, input_bytes));
        }
        w.key("overall_ratio");
        w.number(stats->overallRatio(input_bytes));
        w.endObject();
    }
    w.key("telemetry");
    w.raw(telemetry::toJson(reg));
    w.endObject();
    std::printf("%s\n", w.take().c_str());
    std::fprintf(stderr, "%s", telemetry::renderReport(reg).c_str());
}

/**
 * Resolve the --index-save/--index-load/--index-cache flags against
 * the materialized input: the index to run warm with (if any), loaded
 * when a fresh sidecar exists, built otherwise, saved where asked.
 * A stale or corrupt sidecar is never an error — jsq warns and falls
 * back to streaming (or rebuilds, with --index-cache).
 */
std::optional<index::StructuralIndex>
resolveSidecar(const Options& opt, std::string_view input)
{
    std::optional<index::StructuralIndex> sidecar;
    if (!opt.index_load.empty()) {
        try {
            sidecar = index::loadIndexFile(opt.index_load);
            if (!sidecar->describes(input)) {
                std::fprintf(stderr,
                             "jsq: index %s does not describe this "
                             "input; streaming instead\n",
                             opt.index_load.c_str());
                sidecar.reset();
            }
        } catch (const index::IndexError& e) {
            // A bad sidecar is never trusted and never fatal: the
            // document itself is fine, so stream it.
            std::fprintf(stderr,
                         "jsq: index %s rejected (%s); streaming "
                         "instead\n",
                         opt.index_load.c_str(), e.what());
            sidecar.reset();
        }
    } else if (opt.index_cache) {
        std::string path = opt.file + ".jski";
        try {
            sidecar = index::loadIndexFile(path);
            if (!sidecar->describes(input))
                sidecar.reset(); // stale: the document changed
        } catch (const index::IndexError&) {
            sidecar.reset(); // missing or corrupt: rebuild below
        }
        if (!sidecar) {
            sidecar = index::StructuralIndex::build(input);
            index::saveIndexFile(*sidecar, path);
        }
    }
    if (!opt.index_save.empty()) {
        if (!sidecar)
            sidecar = index::StructuralIndex::build(input);
        index::saveIndexFile(*sidecar, opt.index_save);
    }
    return sidecar;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.explain_only) {
        try {
            for (const std::string& q : opt.queries)
                std::printf("%s", ski::explain(path::parse(q)).c_str());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "jsq: %s\n", e.what());
            return 1;
        }
        return 0;
    }
    try {
        if (opt.records && opt.queries.size() == 1) {
            // True streaming: a fixed window over the record stream.
            StreamInput in(opt);
            ski::RecordReader reader(
                in.source(),
                opt.chunk_bytes != 0 ? opt.chunk_bytes : 1 << 20);
            path::PathQuery query = path::parse(opt.queries[0]);
            if (opt.profile)
                std::fprintf(stderr, "%s", ski::explain(query).c_str());
            ski::Streamer streamer(query);
            PrintSink sink(opt.count_only || opt.profile, opt.limit);
            ski::FastForwardStats stats;
            telemetry::Registry reg;
            {
                telemetry::Scope scope(reg);
                std::string_view record;
                while (reader.next(record)) {
                    stats.merge(streamer.run(record, &sink).stats);
                    if (opt.limit != 0 && sink.count >= opt.limit)
                        break;
                }
            }
            if (opt.count_only)
                std::printf("%zu\n", sink.count);
            if (opt.profile)
                printProfile(opt.queries[0], reader.bytesRead(),
                             sink.count, &stats, reg);
            if (opt.stats) {
                std::fprintf(stderr,
                             "fast-forwarded %.2f%% of %zu record "
                             "bytes across %zu records\n",
                             stats.overallRatio(reader.bytesRead()) *
                                 100,
                             reader.bytesRead(), reader.recordsRead());
            }
            return 0;
        }

        if (!opt.records && opt.chunk_bytes != 0) {
            // Bounded-memory ingestion: pull the input through the
            // engine chunk by chunk, never materializing the document.
            StreamInput in(opt);
            intervals::ChunkSource& src = in.source();

            if (opt.queries.size() == 1) {
                path::PathQuery query = path::parse(opt.queries[0]);
                if (opt.profile)
                    std::fprintf(stderr, "%s",
                                 ski::explain(query).c_str());
                ski::Streamer streamer(query);
                PrintSink sink(opt.count_only || opt.profile, opt.limit);
                ski::StreamResult r;
                telemetry::Registry reg;
                {
                    telemetry::Scope scope(reg);
                    r = streamer.run(src, &sink, opt.chunk_bytes);
                }
                if (opt.count_only)
                    std::printf("%zu\n", sink.count);
                if (opt.profile)
                    printProfile(opt.queries[0], r.input_bytes,
                                 sink.count, &r.stats, reg);
                if (opt.stats) {
                    std::fprintf(
                        stderr,
                        "fast-forwarded %.2f%% of %zu bytes; chunked "
                        "ingestion: %llu refills, %llu spill bytes, "
                        "window peak %zu bytes\n",
                        r.stats.overallRatio(r.input_bytes) * 100,
                        r.input_bytes,
                        static_cast<unsigned long long>(r.ingest.refills),
                        static_cast<unsigned long long>(
                            r.ingest.spill_bytes),
                        r.ingest.window_peak);
                }
            } else {
                // One combined pass: the multi-streamer normalizes the
                // list (dedup, canonical forms) exactly like the jsqd
                // plan cache, so duplicates share one match stream.
                ski::MultiStreamer ms(
                    path::QuerySet::fromTexts(opt.queries));
                const path::QuerySet& set = ms.querySet();
                if (opt.profile)
                    for (const path::PathQuery& q : ms.queries())
                        std::fprintf(stderr, "%s",
                                     ski::explain(q).c_str());
                PrintMultiSink sink(opt.count_only || opt.profile,
                                    set.representatives());
                ski::MultiStreamer::Result r;
                telemetry::Registry reg;
                {
                    telemetry::Scope scope(reg);
                    r = ms.run(src, &sink, opt.chunk_bytes);
                }
                if (opt.count_only)
                    printMultiCounts(opt.queries, set, r.matches);
                if (opt.profile) {
                    size_t total = 0;
                    for (size_t m : r.matches)
                        total += m;
                    printProfile(service::joinQueries(opt.queries),
                                 r.input_bytes, total, &r.stats, reg);
                }
                if (opt.stats)
                    printMultiStats(ms, r, r.input_bytes);
            }
            return 0;
        }

        const intervals::MappedInput loaded = loadInput(opt);
        std::string_view input = loaded.view();
        std::vector<std::pair<size_t, size_t>> spans;
        if (opt.records)
            spans = ski::scanRecords(input);
        else
            spans.emplace_back(0, input.size());

        if (opt.queries.size() == 1) {
            path::PathQuery query = path::parse(opt.queries[0]);
            if (opt.profile)
                std::fprintf(stderr, "%s", ski::explain(query).c_str());
            std::optional<index::StructuralIndex> sidecar;
            if (opt.usesIndex())
                sidecar = resolveSidecar(opt, input);
            ski::Streamer streamer(query);
            PrintSink sink(opt.count_only || opt.profile, opt.limit);
            ski::FastForwardStats stats;
            telemetry::Registry reg;
            {
                telemetry::Scope scope(reg);
                for (auto [off, len] : spans) {
                    std::string_view slice = input.substr(off, len);
                    ski::StreamResult r =
                        sidecar ? streamer.runIndexed(slice, *sidecar,
                                                      &sink)
                                : streamer.run(slice, &sink);
                    stats.merge(r.stats);
                    if (opt.limit != 0 && sink.count >= opt.limit)
                        break;
                }
            }
            if (opt.count_only)
                std::printf("%zu\n", sink.count);
            if (opt.profile)
                printProfile(opt.queries[0], input.size(), sink.count,
                             &stats, reg);
            if (opt.stats) {
                std::fprintf(stderr,
                             "fast-forwarded %.2f%% of %zu bytes "
                             "(G1..G5: %.1f%% %.1f%% %.1f%% %.1f%% "
                             "%.1f%%)\n",
                             stats.overallRatio(input.size()) * 100,
                             input.size(),
                             stats.ratio(ski::Group::G1, input.size()) * 100,
                             stats.ratio(ski::Group::G2, input.size()) * 100,
                             stats.ratio(ski::Group::G3, input.size()) * 100,
                             stats.ratio(ski::Group::G4, input.size()) * 100,
                             stats.ratio(ski::Group::G5, input.size()) * 100);
            }
        } else {
            // One combined pass per span: the multi-streamer
            // normalizes the list (dedup, canonical forms) exactly
            // like the jsqd plan cache, so duplicates share one match
            // stream.
            ski::MultiStreamer ms(
                path::QuerySet::fromTexts(opt.queries));
            const path::QuerySet& set = ms.querySet();
            if (opt.profile)
                for (const path::PathQuery& q : ms.queries())
                    std::fprintf(stderr, "%s", ski::explain(q).c_str());
            PrintMultiSink sink(opt.count_only || opt.profile,
                                set.representatives());
            ski::MultiStreamer::Result agg;
            agg.matches.assign(set.size(), 0);
            agg.per_query.assign(set.size(), ski::FastForwardStats{});
            telemetry::Registry reg;
            {
                telemetry::Scope scope(reg);
                for (auto [off, len] : spans) {
                    auto r = ms.run(input.substr(off, len), &sink);
                    for (size_t qi = 0; qi < set.size(); ++qi) {
                        agg.matches[qi] += r.matches[qi];
                        agg.per_query[qi].merge(r.per_query[qi]);
                    }
                    agg.stats.merge(r.stats);
                }
            }
            if (opt.count_only)
                printMultiCounts(opt.queries, set, agg.matches);
            if (opt.profile) {
                size_t total = 0;
                for (size_t m : agg.matches)
                    total += m;
                printProfile(service::joinQueries(opt.queries),
                             input.size(), total, &agg.stats, reg);
            }
            if (opt.stats)
                printMultiStats(ms, agg, input.size());
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "jsq: %s\n", e.what());
        return 1;
    }
    return 0;
}
