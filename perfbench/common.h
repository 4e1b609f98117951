/**
 * @file
 * Helpers shared by the benchmark's two programs (pb_tool, pb_layers):
 * the output digest both sides of the correctness gate compute, and
 * small file and clock utilities.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "path/matches.h"

namespace perfbench {

/**
 * CRC-32 (IEEE 802.3, reflected), bit-identical to Python's
 * zlib.crc32, so run.py can digest jsq's stdout with the same function
 * the C++ side applies to DOM values and jsqd match frames.
 */
class Crc32
{
  public:
    void
    update(const char* p, size_t n)
    {
        static const std::array<uint32_t, 256> table = [] {
            std::array<uint32_t, 256> t{};
            for (uint32_t i = 0; i < 256; ++i) {
                uint32_t c = i;
                for (int k = 0; k < 8; ++k)
                    c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
                t[i] = c;
            }
            return t;
        }();
        uint32_t c = ~crc_;
        for (size_t i = 0; i < n; ++i)
            c = table[(c ^ static_cast<uint8_t>(p[i])) & 0xFF] ^ (c >> 8);
        crc_ = ~c;
    }

    uint32_t value() const { return crc_; }

    static Crc32
    fromValue(uint32_t v)
    {
        Crc32 c;
        c.crc_ = v;
        return c;
    }

  private:
    uint32_t crc_ = 0;
};

/**
 * Digest of a match stream as jsq prints it: every value followed by a
 * newline.  count, bytes and crc together are the expected answer.
 */
struct Digest
{
    uint64_t count = 0;
    uint64_t bytes = 0;
    Crc32 crc;

    void
    add(std::string_view value)
    {
        ++count;
        bytes += value.size() + 1;
        crc.update(value.data(), value.size());
        crc.update("\n", 1);
    }
};

/** MatchSink feeding a Digest (records accumulate into one). */
class DigestSink : public jsonski::path::MatchSink
{
  public:
    explicit DigestSink(Digest& digest) : digest_(digest) {}
    void onMatch(std::string_view value) override { digest_.add(value); }

  private:
    Digest& digest_;
};

using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

/** Open @p path for reading; throws when it cannot. */
inline FilePtr
openFile(const std::string& path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!f)
        throw std::runtime_error("cannot open " + path);
    return f;
}

inline std::string
readFile(const std::string& path)
{
    FilePtr f = openFile(path);
    std::string out;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0)
        out.append(buf, n);
    if (std::ferror(f.get()) != 0)
        throw std::runtime_error("read error on " + path);
    return out;
}

inline void
writeFile(const std::string& path, std::string_view data)
{
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw std::runtime_error("cannot create " + path);
    bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        throw std::runtime_error("write error on " + path);
}

/** Split @p line on tabs. */
inline std::vector<std::string>
splitTabs(std::string_view line)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (;;) {
        size_t tab = line.find('\t', start);
        out.emplace_back(line.substr(start, tab - start));
        if (tab == std::string_view::npos)
            return out;
        start = tab + 1;
    }
}

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary fixed origin (steady clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
