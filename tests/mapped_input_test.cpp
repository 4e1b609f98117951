/**
 * @file
 * The whole-input loader (intervals/mapped_input.h) and the no-overread
 * wall behind it.
 *
 * MappedInput: regular files are mapped, everything else (pipes, empty
 * files) is read once; open and read failures are typed IoErrors; the
 * sidecar loader keeps its IndexError contract on top of it.
 *
 * NoOverread: a mapped view has no NUL slack past size(), and ASan
 * cannot see a read past a mapping.  So every corpus document — plus
 * page-multiple sizes and documents cut mid-number, mid-string and
 * mid-literal — is copied to sit flush against a PROT_NONE guard page
 * (ending right before it, and starting right after one), and every
 * resident entry point runs the default queries there under every
 * runnable kernel.  Any read outside the document faults; the results
 * must also equal those over an ordinary std::string copy.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include "index/structural_index.h"
#include "intervals/mapped_input.h"
#include "kernels/kernel.h"
#include "path/matches.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "ski/multi.h"
#include "ski/record_scanner.h"
#include "ski/streamer.h"
#include "testing/differential.h"
#include "temp_dir.h"
#include "util/error.h"

using namespace jsonski;

namespace {

using test::TempDir;

ParseError
loadError(const std::string& path)
{
    try {
        intervals::MappedInput in(path);
    } catch (const ParseError& e) {
        return e;
    }
    ADD_FAILURE() << "loading " << path << " did not throw";
    return ParseError("no error", 0);
}

} // namespace

TEST(MappedInput, MapsARegularFile)
{
    TempDir dir;
    std::string doc = R"({"a": [1, 2, 3], "b": "x"})";
    intervals::MappedInput in(dir.file("doc.json", doc));
    EXPECT_TRUE(in.mapped());
    EXPECT_EQ(in.view(), doc);
}

TEST(MappedInput, MapsADescriptorRedirectedFromAFile)
{
    TempDir dir;
    std::string doc = "[true, false, null]";
    int fd = ::open(dir.file("doc.json", doc).c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    {
        intervals::MappedInput in(fd);
        EXPECT_TRUE(in.mapped());
        EXPECT_EQ(in.view(), doc);
    }
    EXPECT_EQ(::close(fd), 0) << "the loader must not close a borrowed fd";
}

TEST(MappedInput, PartlyConsumedDescriptorYieldsTheRest)
{
    TempDir dir;
    int fd = ::open(dir.file("doc.json", "xyz[1,2]").c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    char skip[3];
    ASSERT_EQ(::read(fd, skip, 3), 3);
    {
        intervals::MappedInput in(fd);
        EXPECT_EQ(in.view(), "[1,2]");
    }
    ::close(fd);
}

TEST(MappedInput, EmptyFileIsAnEmptyNonNullView)
{
    TempDir dir;
    intervals::MappedInput in(dir.file("empty.json", ""));
    EXPECT_FALSE(in.mapped());
    EXPECT_TRUE(in.view().empty());
    EXPECT_NE(in.view().data(), nullptr);
}

TEST(MappedInput, ReadsAPipeLargerThanItsBuffer)
{
    // Several doublings of the 64 KB starting buffer, and more than a
    // pipe holds, so the writer must block while the loader drains.
    std::string payload(700 * 1024 + 17, ' ');
    for (size_t i = 0; i < payload.size(); i += 97)
        payload[i] = static_cast<char>('a' + i % 26);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::thread writer([&] {
        size_t off = 0;
        while (off < payload.size()) {
            ssize_t n = ::write(fds[1], payload.data() + off,
                                payload.size() - off);
            if (n <= 0)
                break;
            off += static_cast<size_t>(n);
        }
        ::close(fds[1]);
    });
    {
        intervals::MappedInput in(fds[0]);
        EXPECT_FALSE(in.mapped());
        EXPECT_EQ(in.view(), payload);
    }
    writer.join();
    ::close(fds[0]);
}

TEST(MappedInput, MissingFileIsATypedIoError)
{
    TempDir dir;
    ParseError e = loadError(dir.str() + "/absent.json");
    EXPECT_EQ(e.code(), ErrorCode::IoError);
    EXPECT_EQ(e.position(), 0u);
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(std::strerror(ENOENT)),
              std::string::npos);
}

TEST(MappedInput, DirectoryIsATypedIoError)
{
    // open(2) succeeds on a directory; the read fails with EISDIR.
    // Chunked ingestion (FileSource) reports the same message.
    TempDir dir;
    ParseError e = loadError(dir.str());
    EXPECT_EQ(e.code(), ErrorCode::IoError);
    EXPECT_EQ(e.position(), 0u);
    EXPECT_NE(std::string(e.what()).find("input read failed"),
              std::string::npos);
}

TEST(MappedInput, SidecarLoaderKeepsItsIndexErrorContract)
{
    TempDir dir;
    std::string doc = R"([{"id": 1}, {"id": 2}])";
    index::StructuralIndex built = index::StructuralIndex::build(doc);
    std::string sidecar = dir.str() + "/doc.jski";
    index::saveIndexFile(built, sidecar);
    index::StructuralIndex loaded = index::loadIndexFile(sidecar);
    EXPECT_TRUE(loaded.describes(doc));
    EXPECT_EQ(loaded.serialize(), built.serialize());

    for (const std::string& bad : {dir.str() + "/absent.jski", dir.str()}) {
        try {
            index::loadIndexFile(bad);
            ADD_FAILURE() << bad << " loaded";
        } catch (const index::IndexError& e) {
            EXPECT_EQ(e.offset(), 0u);
            EXPECT_NE(e.reason().find("read error on " + bad),
                      std::string::npos)
                << e.what();
        }
    }
}

// --------------------------------------------------------------------
// NoOverread

namespace {

size_t
pageSize()
{
    return static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

/**
 * A read-only copy of a document between two PROT_NONE guard pages,
 * flush against the trailing guard (like the tail of a mapped file
 * whose size is a page multiple) or against the leading one (like the
 * head of every mapped file).
 */
class GuardedCopy
{
  public:
    enum class Flush { End, Start };

    GuardedCopy(std::string_view doc, Flush flush)
    {
        size_t page = pageSize();
        size_t data_pages = std::max<size_t>(1, (doc.size() + page - 1) / page);
        len_ = (data_pages + 2) * page;
        void* p = ::mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::runtime_error("mmap failed");
        base_ = static_cast<char*>(p);
        char* data = base_ + page;
        char* start = flush == Flush::End
                          ? data + data_pages * page - doc.size()
                          : data;
        std::memcpy(start, doc.data(), doc.size());
        if (::mprotect(base_, page, PROT_NONE) != 0 ||
            ::mprotect(data, data_pages * page, PROT_READ) != 0 ||
            ::mprotect(data + data_pages * page, page, PROT_NONE) != 0)
            throw std::runtime_error("mprotect failed");
        view_ = std::string_view(start, doc.size());
    }

    ~GuardedCopy() { ::munmap(base_, len_); }

    GuardedCopy(const GuardedCopy&) = delete;
    GuardedCopy& operator=(const GuardedCopy&) = delete;

    std::string_view view() const { return view_; }

  private:
    char* base_ = nullptr;
    size_t len_ = 0;
    std::string_view view_;
};

/** Everything observable from one pass: values, or the typed error. */
struct Observed
{
    std::vector<std::string> values;
    std::vector<size_t> counts;
    ErrorCode code = ErrorCode::Unspecified;
    size_t position = 0;
    bool threw = false;

    bool operator==(const Observed&) const = default;
};

Observed
observe(const std::function<void(Observed&)>& pass)
{
    Observed out;
    try {
        pass(out);
    } catch (const ParseError& e) {
        out.threw = true;
        out.code = e.code();
        out.position = e.position();
    }
    return out;
}

class CollectMulti : public ski::MultiSink
{
  public:
    explicit CollectMulti(std::vector<std::string>& out) : out_(out) {}

    void
    onMatch(size_t qi, std::string_view value) override
    {
        out_.push_back(std::to_string(qi) + ":" + std::string(value));
    }

  private:
    std::vector<std::string>& out_;
};

/** An unterminated array of numbers, cut to exactly @p size bytes. */
std::string
numberArrayOfSize(size_t size)
{
    std::string doc = "[";
    while (doc.size() < size)
        doc += "12345,";
    doc.resize(size);
    return doc;
}

/** The corpus plus documents whose last byte is a hazard. */
std::vector<std::string>
wallDocuments()
{
    std::vector<std::string> docs = jsonski::testing::defaultCorpus();
    size_t page = pageSize();
    // Valid page-multiple documents: an array padded with spaces, and
    // records, so the final byte is the last byte of a page.
    std::string padded = R"([{"id": 1, "nm": "a"}, {"id": 2}])";
    padded.insert(padded.size() - 1, page - padded.size(), ' ');
    docs.push_back(padded);
    std::string twopages = numberArrayOfSize(2 * page - 1) + "]";
    twopages[twopages.size() - 2] = '1'; // "...,1]": no trailing comma
    docs.push_back(twopages);
    // Documents that end in the middle of a token.
    docs.push_back(numberArrayOfSize(page));         // mid-number
    docs.push_back(numberArrayOfSize(page - 2));     // mid-number
    docs.push_back("[1, 2, 3.14159e");               // mid-exponent
    docs.push_back("1234567890");                    // top-level number
    docs.push_back(R"({"nm": "abc)");                // mid-string
    docs.push_back(R"({"nm": "ab\)");                // mid-escape
    docs.push_back(R"({"nm": "\u12)");               // mid-\u escape
    docs.push_back(R"("top-level string")");
    docs.push_back("[true, fals");                   // mid-literal
    docs.push_back(R"({"id": nul)");                 // mid-literal
    docs.push_back("true");
    docs.push_back("{\"en\": {\"urls\": [{\"url\": ");// mid-value
    docs.push_back("");
    return docs;
}

/** Record-stream variant: every corpus document on its own line. */
std::string
recordStream(const std::vector<std::string>& corpus, size_t count)
{
    std::string out;
    for (size_t i = 0; i < corpus.size() && i < count; ++i)
        out += corpus[i] + "\n";
    return out;
}

/**
 * Every resident entry point over @p view, under the active kernel:
 * one label per pass, so a divergence names its caller.
 */
std::vector<std::pair<std::string, Observed>>
allPasses(std::string_view view,
          const std::vector<path::PathQuery>& queries,
          const ski::MultiStreamer& multi)
{
    std::vector<std::pair<std::string, Observed>> out;
    std::optional<index::StructuralIndex> ix;
    out.emplace_back("index-build", observe([&](Observed& o) {
        ix.emplace(index::StructuralIndex::build(view));
        o.counts.push_back(ix->usable());
    }));
    for (size_t qi = 0; qi < queries.size(); ++qi) {
        ski::Streamer s(queries[qi]);
        std::string q = std::to_string(qi);
        auto collect = [](Observed& o, auto&& pass) {
            path::CollectSink sink;
            ski::StreamResult r = pass(&sink);
            o.values = std::move(sink.values);
            o.counts.push_back(r.matches);
        };
        out.emplace_back("run q" + q, observe([&](Observed& o) {
            collect(o, [&](path::CollectSink* k) { return s.run(view, k); });
        }));
        out.emplace_back("runResident q" + q, observe([&](Observed& o) {
            collect(o, [&](path::CollectSink* k) {
                return s.runResident(view, k);
            });
        }));
        if (ix)
            out.emplace_back("runIndexed q" + q, observe([&](Observed& o) {
                collect(o, [&](path::CollectSink* k) {
                    return s.runIndexed(view, *ix, k);
                });
            }));
    }
    out.emplace_back("multi", observe([&](Observed& o) {
        CollectMulti sink(o.values);
        o.counts = multi.run(view, &sink).matches;
    }));
    out.emplace_back("scanRecords", observe([&](Observed& o) {
        size_t tail = 0;
        for (auto [off, len] : ski::scanRecords(view, &tail)) {
            o.counts.push_back(off);
            o.counts.push_back(len);
        }
        o.counts.push_back(tail);
    }));
    return out;
}

} // namespace

TEST(NoOverread, EveryResidentEntryPointStaysInsideTheDocument)
{
    std::vector<std::string> docs = wallDocuments();
    docs.push_back(recordStream(jsonski::testing::defaultCorpus(), 8));
    std::vector<std::string> texts = jsonski::testing::defaultQueries();
    std::vector<path::PathQuery> queries;
    for (const std::string& t : texts)
        queries.push_back(path::parse(t));
    ski::MultiStreamer multi(path::QuerySet::fromTexts(texts));

    size_t passes = 0;
    for (const kernels::Kernel* kern : kernels::runnable()) {
        kernels::Override guard(*kern);
        for (const std::string& doc : docs) {
            auto expected = allPasses(doc, queries, multi);
            for (auto flush : {GuardedCopy::Flush::End,
                               GuardedCopy::Flush::Start}) {
                GuardedCopy copy(doc, flush);
                auto got = allPasses(copy.view(), queries, multi);
                ASSERT_EQ(got.size(), expected.size());
                for (size_t i = 0; i < got.size(); ++i) {
                    EXPECT_TRUE(got[i].second == expected[i].second)
                        << "kernel=" << kern->name << " pass="
                        << got[i].first << " flush="
                        << (flush == GuardedCopy::Flush::End ? "end"
                                                             : "start")
                        << " size=" << doc.size()
                        << " doc: " << doc.substr(0, 80);
                    ++passes;
                }
            }
        }
    }
    EXPECT_GT(passes, docs.size() * queries.size());
}

TEST(NoOverread, MappedPageMultipleFileRunsEveryQuery)
{
    // The real thing: a file whose size is a page multiple, mapped by
    // the loader, so nothing of the mapping lies past its last byte.
    TempDir dir;
    std::string doc = R"({"nm": "x", "cp": [{"id": 1}, {"id": 2}, {"id": 3}]})";
    doc.insert(doc.size() - 1, 2 * pageSize() - doc.size(), ' ');
    intervals::MappedInput in(dir.file("page.json", doc));
    ASSERT_TRUE(in.mapped());
    ASSERT_EQ(in.view().size() % pageSize(), 0u);
    for (const std::string& t : jsonski::testing::defaultQueries()) {
        ski::Streamer s(path::parse(t));
        path::CollectSink mapped_sink, copy_sink;
        s.runResident(in.view(), &mapped_sink);
        s.runResident(doc, &copy_sink);
        EXPECT_EQ(mapped_sink.values, copy_sink.values) << t;
    }
}
