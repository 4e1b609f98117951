/**
 * @file
 * Black-box equivalence of jsq's ingest modes: the built binary is run
 * through /bin/sh on the same input four ways —
 *
 *   whole file (mapped)        jsq ARGS FILE
 *   bounded chunks             jsq --chunk-bytes 4096 ARGS FILE
 *   stdin from a pipe          cat FILE | jsq ARGS
 *   stdin redirected           jsq ARGS < FILE
 *
 * — and every way must print byte-identical stdout and exit with the
 * same code.  Covered: the differential corpus, 0-, 1- and exactly
 * 4096-byte files, -c, -n K, multi-query, -r multi-query (and -r
 * single-query, which streams), and --index-cache against the plain
 * whole-file run.  A missing file and a directory must exit 1 with
 * the same typed message in every mode.
 *
 * Unless JSONSKI_KERNEL already pins a kernel, documents rotate across
 * every runnable kernel, so each argument shape meets each of them.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "kernels/kernel.h"
#include "temp_dir.h"
#include "testing/differential.h"

using jsonski::test::TempDir;
namespace kernels = jsonski::kernels;

namespace {

struct Outcome
{
    std::string out;
    std::string err;
    int status = -1;
};

std::string
quote(const std::string& s)
{
    std::string q = "'";
    for (char c : s) {
        if (c == '\'')
            q += "'\\''";
        else
            q += c;
    }
    return q + "'";
}

std::string
slurp(std::FILE* f)
{
    std::string s;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) != 0)
        s.append(buf, n);
    return s;
}

/** Run @p cmd under /bin/sh; stdout, stderr and exit status. */
Outcome
shell(const TempDir& dir, const std::string& cmd)
{
    std::string err_path = dir.path("stderr");
    Outcome o;
    std::FILE* p = ::popen((cmd + " 2>" + quote(err_path)).c_str(), "r");
    if (p == nullptr)
        throw std::runtime_error("popen failed");
    o.out = slurp(p);
    int st = ::pclose(p);
    o.status = WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
    if (std::FILE* e = std::fopen(err_path.c_str(), "rb")) {
        o.err = slurp(e);
        std::fclose(e);
    }
    return o;
}

/** "JSONSKI_KERNEL=k " for rotation slot @p i, or "" when pinned. */
std::string
kernelPrefix(size_t i)
{
    if (std::getenv("JSONSKI_KERNEL") != nullptr)
        return "";
    std::vector<const kernels::Kernel*> ks = kernels::runnable();
    return "JSONSKI_KERNEL=" + std::string(ks[i % ks.size()]->name) + " ";
}

std::string
jsq(size_t kernel_slot)
{
    return kernelPrefix(kernel_slot) + quote(JSQ_BINARY);
}

/**
 * Run ARGS over FILE in all four ingest modes; every mode must match
 * the whole-file run.  @return the whole-file outcome.
 */
Outcome
expectSameInEveryMode(const TempDir& dir, const std::string& file,
                      const std::vector<std::string>& args,
                      size_t kernel_slot)
{
    std::string a;
    for (const std::string& s : args)
        a += " " + quote(s);
    std::string bin = jsq(kernel_slot);
    std::string f = quote(file);
    Outcome whole = shell(dir, bin + a + " " + f);
    const std::pair<const char*, std::string> others[] = {
        {"--chunk-bytes 4096", bin + " --chunk-bytes 4096" + a + " " + f},
        {"stdin pipe", "cat " + f + " | " + bin + a},
        {"stdin redirect", bin + a + " < " + f},
    };
    for (const auto& [mode, cmd] : others) {
        Outcome o = shell(dir, cmd);
        EXPECT_EQ(o.out, whole.out) << mode << ": " << cmd;
        EXPECT_EQ(o.status, whole.status)
            << mode << ": " << cmd << "\nwhole-file stderr: " << whole.err
            << "\n" << mode << " stderr: " << o.err;
    }
    EXPECT_NE(whole.status, 2) << "usage error: " << whole.err;
    EXPECT_LT(whole.status, 128) << "killed by a signal: " << bin + a;
    return whole;
}

const std::vector<std::string>&
corpus()
{
    static const std::vector<std::string> docs =
        jsonski::testing::defaultCorpus();
    return docs;
}

const std::vector<std::string>&
queries()
{
    static const std::vector<std::string> qs =
        jsonski::testing::defaultQueries();
    return qs;
}

/** The argument shapes every document is run with. */
std::vector<std::vector<std::string>>
argShapes(size_t i)
{
    const std::vector<std::string>& qs = queries();
    std::string q = qs[i % qs.size()];
    std::string pair = q + "," + qs[(i + 5) % qs.size()];
    return {{q}, {"-c", q}, {"-n", "2", q}, {pair}, {"-c", pair}};
}

class JsqCliCorpus : public ::testing::TestWithParam<size_t>
{};

} // namespace

TEST_P(JsqCliCorpus, EveryIngestModePrintsTheSame)
{
    size_t i = GetParam();
    TempDir dir;
    std::string file = dir.file("doc.json", corpus()[i]);
    for (const std::vector<std::string>& args : argShapes(i))
        expectSameInEveryMode(dir, file, args, i);
}

INSTANTIATE_TEST_SUITE_P(Corpus, JsqCliCorpus,
                         ::testing::Range(size_t{0}, corpus().size()));

TEST(JsqCli, EdgeSizesPrintTheSameInEveryMode)
{
    TempDir dir;
    std::string page = R"([{"id": 1}, {"id": 2}])";
    page.insert(page.size() - 1, 4096 - page.size(), ' ');
    ASSERT_EQ(page.size(), 4096u);
    std::string page_cut = page.substr(0, 4095); // ends before ']'
    const std::pair<const char*, std::string> files[] = {
        {"empty", ""}, {"one", "7"}, {"bracket", "["},
        {"page", page}, {"page-cut", page_cut},
    };
    size_t slot = 0;
    for (const auto& [name, doc] : files) {
        std::string file = dir.file(name, doc);
        for (const std::vector<std::string>& args :
             std::vector<std::vector<std::string>>{
                 {"$"}, {"-c", "$[*].id"}, {"-c", "$[*].id,$[0]"}})
            expectSameInEveryMode(dir, file, args, slot++);
    }
    // The empty file fails typed, not silently.
    Outcome empty = shell(dir, jsq(0) + " -c '$' " +
                                   quote(dir.path("empty")));
    EXPECT_EQ(empty.status, 1);
    EXPECT_EQ(empty.out, "");
}

TEST(JsqCli, RecordStreamsPrintTheSameInEveryMode)
{
    std::string feed;
    for (const std::string& doc : corpus())
        if (doc.size() < 2048 && doc.find('\n') == std::string::npos)
            feed += doc + "\n";
    ASSERT_FALSE(feed.empty());
    TempDir dir;
    std::string file = dir.file("feed.ndjson", feed);
    const std::vector<std::string>& qs = queries();
    for (size_t i = 0; i < qs.size(); ++i) {
        std::string pair = qs[i] + "," + qs[(i + 3) % qs.size()];
        expectSameInEveryMode(dir, file, {"-r", pair}, i);
        expectSameInEveryMode(dir, file, {"-r", "-c", pair}, i);
        expectSameInEveryMode(dir, file, {"-r", "-c", qs[i]}, i);
    }
}

TEST(JsqCli, IndexCacheMatchesThePlainWholeFileRun)
{
    TempDir dir;
    const std::vector<std::string>& qs = queries();
    for (size_t i = 0; i < corpus().size(); i += 3) {
        std::string file = dir.file("doc" + std::to_string(i) + ".json",
                                    corpus()[i]);
        std::string q = quote(qs[i % qs.size()]);
        std::string bin = jsq(i);
        Outcome plain = shell(dir, bin + " " + q + " " + quote(file));
        // Cold (builds and saves FILE.jski), then warm (loads it).
        for (const char* pass : {"cold", "warm"}) {
            Outcome cached = shell(dir, bin + " --index-cache " + q + " " +
                                            quote(file));
            EXPECT_EQ(cached.out, plain.out) << pass << " doc " << i;
            EXPECT_EQ(cached.status, plain.status) << pass << " doc " << i;
        }
    }
}

TEST(JsqCli, UnreadableInputsFailTypedInEveryMode)
{
    TempDir dir;
    std::string missing = dir.path("absent.json");
    std::string bin = jsq(0);
    const std::string modes[] = {"", " --chunk-bytes 4096", " -r"};
    for (const std::string& mode : modes) {
        for (const char* q : {"'$'", "'$.a,$.b'"}) {
            Outcome gone = shell(dir, bin + mode + " -c " + q + " " +
                                          quote(missing));
            EXPECT_EQ(gone.status, 1) << mode << " " << q;
            EXPECT_EQ(gone.out, "");
            EXPECT_EQ(gone.err, "jsq: cannot open " + missing +
                                    ": No such file or directory (at byte "
                                    "0)\n")
                << mode << " " << q;
        }
    }
    // A directory opens but cannot be read (EISDIR): whole-file,
    // chunked and record-stream ingestion report the same typed read
    // failure, as does stdin redirected from it.
    for (const std::string& cmd :
         {bin + " -c '$' " + quote(dir.str()),
          bin + " --chunk-bytes 4096 -c '$' " + quote(dir.str()),
          bin + " -r -c '$.a,$.b' " + quote(dir.str()),
          bin + " -r -c '$.a' " + quote(dir.str()),
          bin + " -c '$' < " + quote(dir.str())}) {
        Outcome o = shell(dir, cmd);
        EXPECT_EQ(o.status, 1) << cmd;
        EXPECT_EQ(o.err, "jsq: input read failed (at byte 0)\n") << cmd;
    }
}
