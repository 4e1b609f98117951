/**
 * @file
 * pb_tool — the benchmark's helper for the end-to-end workloads.  It
 * touches the system only through the generator, the DOM baseline and
 * the jsqd client API; jsq and jsqd themselves run as the shipped
 * binaries.
 *
 *   pb_tool env
 *       One JSON line: build flags this binary was compiled with (the
 *       same flags as jsq/jsqd), compiler, active SIMD kernel.
 *   pb_tool prepare SPEC
 *       Generate inputs and compute expected answers with the DOM
 *       baseline.  SPEC lines (tab-separated):
 *         large  DATASET BYTES SEED PATH   gen::generateLarge to PATH
 *         small  DATASET BYTES SEED PATH   gen::generateSmall (NDJSON)
 *         doc     PATH QUERY               expect QUERY over the doc
 *         records PATH QUERY               expect QUERY per NDJSON line
 *       Prints one "count<TAB>bytes<TAB>crc" line per doc/records line,
 *       in order: the digest of the values, each followed by '\n'.
 *   pb_tool client SPEC OUT
 *       The service-mix open-loop client (see runClient below).
 */
#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/prctl.h>

#include "baseline/dom/parser.h"
#include "baseline/dom/query.h"
#include "common.h"
#include "gen/datasets.h"
#include "kernels/kernel.h"
#include "path/parser.h"
#include "service/loopback.h"
#include "service/protocol.h"
#include "telemetry/telemetry.h"

using namespace jsonski;
using namespace perfbench;

namespace {

gen::DatasetId
datasetByName(const std::string& name)
{
    for (gen::DatasetId id : gen::kAllDatasets) {
        if (gen::datasetName(id) == name)
            return id;
    }
    throw std::runtime_error("unknown dataset " + name);
}

/** Run @p tasks on at most @p threads threads; rethrows the first error. */
void
runParallel(std::vector<std::function<void()>>& tasks, size_t threads)
{
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::exception_ptr first;
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < tasks.size();) {
            try {
                tasks[i]();
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!first)
                    first = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (size_t t = 0; t < std::min(threads, tasks.size()); ++t)
        pool.emplace_back(worker);
    for (std::thread& t : pool)
        t.join();
    if (first)
        std::rethrow_exception(first);
}

int
cmdEnv()
{
#ifdef NDEBUG
    bool ndebug = true;
#else
    bool ndebug = false;
#endif
    std::printf("{\"ndebug\": %s, \"telemetry\": %s, \"compiler\": \"%s\", "
                "\"simd_kernel\": \"%s\"}\n",
                ndebug ? "true" : "false",
                telemetry::kEnabled ? "true" : "false", __VERSION__,
                std::string(kernels::activeName()).c_str());
    return 0;
}

int
cmdPrepare(const std::string& spec_path)
{
    struct Expect
    {
        bool records;
        std::string path, query;
        Digest digest;
    };
    std::vector<std::function<void()>> gens;
    std::vector<Expect> expects;
    std::istringstream spec(readFile(spec_path));
    for (std::string line; std::getline(spec, line);) {
        if (line.empty())
            continue;
        std::vector<std::string> f = splitTabs(line);
        if ((f[0] == "large" || f[0] == "small") && f.size() == 5) {
            gen::DatasetId id = datasetByName(f[1]);
            size_t bytes = std::stoull(f[2]);
            uint64_t seed = std::stoull(f[3]);
            bool large = f[0] == "large";
            std::string path = f[4];
            gens.push_back([=] {
                if (large)
                    writeFile(path, gen::generateLarge(id, bytes, seed));
                else
                    writeFile(path,
                              gen::generateSmall(id, bytes, seed).buffer);
            });
        } else if ((f[0] == "doc" || f[0] == "records") && f.size() == 3) {
            expects.push_back({f[0] == "records", f[1], f[2], {}});
        } else {
            throw std::runtime_error("bad spec line: " + line);
        }
    }
    runParallel(gens, 4);

    // One DOM parse per input, every query evaluated against it.  Two
    // threads: a 32 MB document's DOM is several hundred MB.
    std::map<std::string, std::vector<Expect*>> by_path;
    for (Expect& e : expects)
        by_path[e.path].push_back(&e);
    std::vector<std::function<void()>> evals;
    for (auto& [path, list] : by_path) {
        evals.push_back([&path, &list] {
            std::string text = readFile(path);
            std::vector<path::PathQuery> queries;
            for (Expect* e : list)
                queries.push_back(path::parse(e->query));
            auto evalAll = [&](std::string_view json, bool records) {
                dom::Document doc;
                dom::parse(json, doc);
                for (size_t i = 0; i < list.size(); ++i) {
                    if (list[i]->records != records)
                        continue;
                    DigestSink sink(list[i]->digest);
                    dom::evaluate(doc.root(), queries[i], &sink);
                }
            };
            bool any_doc = false, any_records = false;
            for (Expect* e : list)
                (e->records ? any_records : any_doc) = true;
            if (any_doc)
                evalAll(text, false);
            if (any_records) {
                std::string_view all(text);
                for (size_t pos = 0; pos < all.size();) {
                    size_t nl = all.find('\n', pos);
                    if (nl == std::string_view::npos)
                        nl = all.size();
                    if (nl > pos)
                        evalAll(all.substr(pos, nl - pos), true);
                    pos = nl + 1;
                }
            }
        });
    }
    runParallel(evals, 2);
    for (const Expect& e : expects)
        std::printf("%llu\t%llu\t%u\n",
                    static_cast<unsigned long long>(e.digest.count),
                    static_cast<unsigned long long>(e.digest.bytes),
                    e.digest.crc.value());
    return 0;
}

/**
 * One request shape of the service-mix (a "template"): body, query
 * list, flags and the DOM-computed expected digest per query.
 */
struct Template
{
    const std::string* body = nullptr;
    bool count_only = false;
    std::string doc_id;     ///< non-empty: a doc= request
    bool unique = false;    ///< "{N}" in the query becomes a fresh number
    std::vector<std::string> queries;
    std::vector<Digest> expected;
};

/** The counters of one `!stats` scrape the benchmark reports on. */
std::string
scrapeCounters(uint16_t port)
{
    service::RequestHeader h;
    h.stats = true;
    service::ClientResult r =
        service::runRequestFd(service::connectTcp("127.0.0.1", port), h, {});
    static const char* names[] = {
        "plan_cache_hits", "plan_cache_misses", "doc_index_cache_hits",
        "doc_index_cache_misses"};
    std::string out;
    for (const char* name : names) {
        std::string key = std::string("\njsonski_server_") + name + " ";
        size_t at = r.raw.find(key);
        if (at == std::string::npos)
            throw std::runtime_error(std::string("!stats lacks ") + name);
        out += '\t';
        out += std::to_string(std::stoull(r.raw.substr(at + key.size())));
    }
    return out;
}

/** Did @p r answer @p t exactly as the DOM baseline did? */
bool
responseCorrect(const Template& t, const service::ClientResult& r)
{
    if (!r.has_trailer || r.severed || !r.trailer.ok)
        return false;
    size_t n = t.queries.size();
    uint64_t total = 0;
    for (const Digest& d : t.expected)
        total += d.count;
    if (r.trailer.matches != total)
        return false;
    if (n > 1) {
        if (r.trailer.per_query.size() != n)
            return false;
        for (size_t i = 0; i < n; ++i) {
            if (r.trailer.per_query[i] != t.expected[i].count)
                return false;
        }
    }
    if (t.count_only)
        return r.matches.empty();
    std::vector<Digest> got(n);
    for (const auto& [qi, value] : r.matches) {
        if (qi >= n)
            return false;
        got[qi].add(value);
    }
    for (size_t i = 0; i < n; ++i) {
        if (got[i].count != t.expected[i].count ||
            got[i].bytes != t.expected[i].bytes ||
            got[i].crc.value() != t.expected[i].crc.value())
            return false;
    }
    return true;
}

/**
 * The service-mix open-loop client.  SPEC lines (tab-separated):
 *   port  PORT
 *   body  PATH
 *   tmpl  BODY_INDEX COUNT_ONLY DOC_ID|- UNIQUE QUERIES EXPECTED
 *         (QUERIES joined by \x1f; EXPECTED "count:bytes:crc" per
 *         query, comma-joined)
 *   slice RATE TEMPLATE_INDICES(comma-joined)
 * Each slice sends its requests on a fixed schedule (request i at
 * start + i/RATE) over two connection threads, each request on a fresh
 * connection (jsq/1 is one request per connection), and scrapes
 * `!stats` before and after.  OUT receives one line per request:
 *   req SLICE TEMPLATE SCHED_US LAG_US CONNECT_US FIRST_MATCH_US
 *       DONE_US CORRECT
 * (times from the slice start; FIRST_MATCH_US is -1 without matches),
 * plus "stats SLICE before|after PLAN_HITS PLAN_MISSES DOC_HITS
 * DOC_MISSES" and "slice SLICE RATE ELAPSED_US" lines.
 */
int
runClient(const std::string& spec_path, const std::string& out_path)
{
    uint16_t port = 0;
    std::vector<std::string> bodies;
    std::vector<Template> templates;
    struct Slice
    {
        double rate;
        std::vector<size_t> seq;
    };
    std::vector<Slice> slices;
    std::istringstream spec(readFile(spec_path));
    std::vector<std::string> body_paths;
    std::vector<std::vector<std::string>> tmpl_lines;
    for (std::string line; std::getline(spec, line);) {
        std::vector<std::string> f = splitTabs(line);
        if (f[0] == "port" && f.size() == 2) {
            port = static_cast<uint16_t>(std::stoul(f[1]));
        } else if (f[0] == "body" && f.size() == 2) {
            body_paths.push_back(f[1]);
        } else if (f[0] == "tmpl" && f.size() == 7) {
            tmpl_lines.push_back(f);
        } else if (f[0] == "slice" && f.size() == 3) {
            Slice r{std::stod(f[1]), {}};
            std::istringstream seq(f[2]);
            for (std::string idx; std::getline(seq, idx, ',');)
                r.seq.push_back(std::stoul(idx));
            slices.push_back(std::move(r));
        } else {
            throw std::runtime_error("bad client spec line: " + line);
        }
    }
    for (const std::string& p : body_paths)
        bodies.push_back(readFile(p));
    for (const std::vector<std::string>& f : tmpl_lines) {
        Template t;
        t.body = &bodies.at(std::stoul(f[1]));
        t.count_only = f[2] == "1";
        t.doc_id = f[3] == "-" ? "" : f[3];
        t.unique = f[4] == "1";
        t.queries = splitTabs([&] {
            std::string q = f[5];
            std::replace(q.begin(), q.end(), '\x1f', '\t');
            return q;
        }());
        std::istringstream exp(f[6]);
        for (std::string e; std::getline(exp, e, ',');) {
            Digest d;
            unsigned long long count = 0, bytes = 0;
            unsigned crc = 0;
            if (std::sscanf(e.c_str(), "%llu:%llu:%u", &count, &bytes,
                            &crc) != 3)
                throw std::runtime_error("bad expected digest " + e);
            d.count = count;
            d.bytes = bytes;
            d.crc = Crc32::fromValue(crc);
            t.expected.push_back(d);
        }
        if (t.expected.size() != t.queries.size())
            throw std::runtime_error("template digest count mismatch");
        templates.push_back(std::move(t));
    }
    for (const Slice& r : slices) {
        for (size_t idx : r.seq) {
            if (idx >= templates.size())
                throw std::runtime_error("slice names a missing template");
        }
    }

    std::string out;
    std::atomic<uint64_t> unique_counter{1000000};
    constexpr size_t kConnections = 2;
    constexpr auto kSpin = std::chrono::microseconds(300);
    for (size_t si = 0; si < slices.size(); ++si) {
        const Slice& slice = slices[si];
        out += "stats\t" + std::to_string(si) + "\tbefore" +
               scrapeCounters(port) + "\n";
        std::vector<std::string> lines(kConnections);
        Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(5);
        auto us = [&](Clock::time_point t) {
            return static_cast<long long>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    t - start)
                    .count());
        };
        // One request: sent on time, answered, checked, logged.
        auto request = [&](size_t i, std::string& log) {
            const Template& t = templates[slice.seq[i]];
            Clock::time_point sched =
                start + std::chrono::microseconds(static_cast<int64_t>(
                            1e6 * static_cast<double>(i) / slice.rate));
            // Spin the last stretch instead of trusting the wake-up.
            std::this_thread::sleep_until(sched - kSpin);
            while (Clock::now() < sched) {
            }
            Clock::time_point sent = Clock::now();
            service::RequestHeader h;
            h.queries = t.queries;
            if (t.unique) {
                std::string n = std::to_string(unique_counter.fetch_add(1));
                for (std::string& q : h.queries) {
                    size_t at = q.find("{N}");
                    if (at != std::string::npos)
                        q.replace(at, 3, n);
                }
            }
            h.count_only = t.count_only;
            h.has_length = true;
            h.length = t.body->size();
            h.multiline = h.queries.size() > 1;
            if (!t.doc_id.empty()) {
                h.has_doc = true;
                h.doc_id = t.doc_id;
            }
            service::ClientOptions copt;
            copt.half_close = false;
            Clock::time_point connected = sent;
            Clock::time_point first_match{};
            bool correct = false;
            try {
                int fd = service::connectTcp("127.0.0.1", port);
                connected = Clock::now();
                service::ClientResult r = service::runRequestFd(
                    fd, h, *t.body, copt, [&](size_t, std::string_view) {
                        if (first_match == Clock::time_point{})
                            first_match = Clock::now();
                    });
                correct = responseCorrect(t, r);
            } catch (const std::exception&) {
                correct = false; // refused connection, bad frame
            }
            Clock::time_point done = Clock::now();
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "req\t%zu\t%zu\t%lld\t%lld\t%lld\t%lld\t%lld\t%d\n",
                          si, slice.seq[i], us(sched), us(sent) - us(sched),
                          us(connected) - us(sent),
                          first_match == Clock::time_point{}
                              ? -1LL
                              : us(first_match) - us(sched),
                          us(done), correct ? 1 : 0);
            log += buf;
        };
        std::vector<std::thread> threads;
        std::vector<std::exception_ptr> errors(kConnections);
        for (size_t c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                try {
                    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
                    for (size_t i = c; i < slice.seq.size(); i += kConnections)
                        request(i, lines[c]);
                } catch (...) {
                    errors[c] = std::current_exception();
                }
            });
        }
        for (std::thread& t : threads)
            t.join();
        for (const std::exception_ptr& e : errors) {
            if (e)
                std::rethrow_exception(e);
        }
        long long elapsed = us(Clock::now());
        for (const std::string& l : lines)
            out += l;
        out += "stats\t" + std::to_string(si) + "\tafter" +
               scrapeCounters(port) + "\n";
        out += "slice\t" + std::to_string(si) + "\t" +
               std::to_string(slice.rate) + "\t" + std::to_string(elapsed) +
               "\n";
    }
    writeFile(out_path, out);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        std::string cmd = argc > 1 ? argv[1] : "";
        if (cmd == "env" && argc == 2)
            return cmdEnv();
        if (cmd == "prepare" && argc == 3)
            return cmdPrepare(argv[2]);
        if (cmd == "client" && argc == 4)
            return runClient(argv[2], argv[3]);
        std::fprintf(stderr, "usage: pb_tool env | prepare SPEC | "
                             "client SPEC OUT\n");
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pb_tool: %s\n", e.what());
        return 1;
    }
}

