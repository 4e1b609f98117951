/**
 * @file
 * jsqc — command-line client for the jsqd query daemon.
 *
 * Usage:
 *   jsqc [--host H] [--port P] <query>[,<query>...] [file]
 *   jsqc [--host H] [--port P] --stats
 *
 * Options mirror jsq where they overlap:
 *   -c            count only (no match values on the wire)
 *   -r            body is an NDJSON record stream
 *   -n K          stop after K matches
 *   -s            print the trailer summary (status, bytes, ff) to stderr
 *   --length      send the body length-prefixed instead of EOF-framed
 *   --doc ID      tag the body as a repeat-query document: the server
 *                 answers from its cached structural semi-index when it
 *                 can (DESIGN.md §14) and the trailer reports
 *                 index=hit|miss|none.  Implies --length.
 *   --chunk N     write the body in N-byte chunks (protocol testing)
 *   --multiline   ship all but the first query as query= continuation
 *                 lines (the form that scales past the server's header
 *                 byte cap)
 *
 * Reads the body from stdin when no file is given.  Matches print as
 * they arrive — single query one per line, multi-query prefixed
 * `[qN] ` where N is the first request position asking for that query
 * (duplicates share one stream; the trailer's qmap records the
 * mapping).  Exit status: 0 on an ok trailer, 1 on an error trailer or
 * severed connection (code and position go to stderr), 2 on usage.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include <unistd.h>

#include "intervals/mapped_input.h"
#include "service/loopback.h"
#include "service/protocol.h"
#include "util/parse.h"

using namespace jsonski;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: jsqc [--host H] [--port P] [-c] [-r] [-s] "
                 "[-n K] [--length] [--doc ID] [--chunk N]\n"
                 "            [--multiline]\n"
                 "            <query>[,<query>...] [file]\n"
                 "       jsqc [--host H] [--port P] --stats\n");
    std::exit(2);
}

size_t
sizeArg(int argc, char** argv, int& i, bool positive = false)
{
    if (i + 1 >= argc)
        usage();
    size_t v = 0;
    bool ok = positive ? parsePositiveSize(argv[i + 1], v)
                       : parseSize(argv[i + 1], v);
    if (!ok) {
        std::fprintf(stderr, "jsqc: bad value for %s: '%s'\n", argv[i],
                     argv[i + 1]);
        usage();
    }
    ++i;
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string host = "127.0.0.1";
    uint16_t port = 9901;
    bool stats = false;
    bool print_trailer = false;
    size_t chunk = 0;
    service::RequestHeader header;
    std::string file;

    int i = 1;
    for (; i < argc; ++i) {
        if (std::strcmp(argv[i], "--host") == 0) {
            if (i + 1 >= argc)
                usage();
            host = argv[++i];
        } else if (std::strcmp(argv[i], "--port") == 0 ||
                   std::strcmp(argv[i], "-p") == 0) {
            size_t p = sizeArg(argc, argv, i, true);
            if (p > 65535)
                usage();
            port = static_cast<uint16_t>(p);
        } else if (std::strcmp(argv[i], "-c") == 0) {
            header.count_only = true;
        } else if (std::strcmp(argv[i], "-r") == 0) {
            header.records = true;
        } else if (std::strcmp(argv[i], "-s") == 0) {
            print_trailer = true;
        } else if (std::strcmp(argv[i], "-n") == 0) {
            header.limit = sizeArg(argc, argv, i, true);
        } else if (std::strcmp(argv[i], "--length") == 0) {
            header.has_length = true;
        } else if (std::strcmp(argv[i], "--doc") == 0) {
            if (i + 1 >= argc)
                usage();
            header.has_doc = true;
            header.doc_id = argv[++i];
            header.has_length = true; // doc= requires length framing
        } else if (std::strcmp(argv[i], "--chunk") == 0) {
            chunk = sizeArg(argc, argv, i, true);
        } else if (std::strcmp(argv[i], "--multiline") == 0) {
            header.multiline = true;
        } else if (std::strcmp(argv[i], "--stats") == 0) {
            stats = true;
        } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
            usage();
        } else {
            break;
        }
    }

    try {
        if (stats) {
            if (i != argc)
                usage();
            service::RequestHeader h;
            h.stats = true;
            service::ClientResult r = service::runRequestFd(
                service::connectTcp(host, port), h, {});
            std::fwrite(r.raw.data(), 1, r.raw.size(), stdout);
            return 0;
        }

        if (i >= argc)
            usage();
        header.queries = service::splitQueries(argv[i++]);
        if (i < argc)
            file = argv[i++];
        if (i != argc)
            usage();

        const intervals::MappedInput input =
            file.empty() ? intervals::MappedInput(STDIN_FILENO)
                         : intervals::MappedInput(file);
        std::string_view body = input.view();
        if (header.has_length)
            header.length = body.size();

        bool multi = header.queries.size() > 1;
        service::ClientOptions opt;
        if (chunk != 0)
            opt.chunk_schedule = {chunk};
        service::ClientResult r = service::runRequestFd(
            service::connectTcp(host, port), header, body, opt,
            [multi](size_t qi, std::string_view value) {
                if (multi)
                    std::printf("[q%zu] ", qi);
                std::fwrite(value.data(), 1, value.size(), stdout);
                std::fputc('\n', stdout);
            });

        if (!r.has_trailer) {
            std::fprintf(stderr,
                         "jsqc: connection severed before trailer\n");
            return 1;
        }
        const service::Trailer& t = r.trailer;
        if (header.count_only) {
            if (t.per_query.empty()) {
                std::printf("%zu\n", t.matches);
            } else {
                for (size_t qi = 0; qi < t.per_query.size(); ++qi)
                    std::printf("q%zu %s: %zu\n", qi,
                                header.queries[qi].c_str(),
                                t.per_query[qi]);
            }
        }
        if (print_trailer) {
            uint64_t skipped = 0;
            for (uint64_t g : t.ff)
                skipped += g;
            std::fprintf(
                stderr,
                "jsqc: status=%s%s%s matches=%zu bytes_in=%zu "
                "skipped=%llu plan=%s%s%s\n",
                t.ok ? "ok" : "error",
                t.ok ? "" : " code=",
                t.ok ? "" : std::string(errorCodeName(t.code)).c_str(),
                t.matches, t.bytes_in,
                static_cast<unsigned long long>(skipped),
                t.plan.c_str(), t.index.empty() ? "" : " index=",
                t.index.c_str());
        }
        if (!t.ok) {
            std::fprintf(stderr, "jsqc: server error: %s at byte %zu\n",
                         std::string(errorCodeName(t.code)).c_str(),
                         t.error_pos);
            return 1;
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "jsqc: %s\n", e.what());
        return 1;
    }
    return 0;
}
