#include "index/structural_index.h"

#include <cassert>
#include <cstdio>
#include <cstring>

#include "index/structural_scan.h"
#include "intervals/classifier.h"
#include "intervals/mapped_input.h"

namespace jsonski::index {

using intervals::BlockBits;
using intervals::kBlockSize;

// --------------------------------------------------------------------
// ContentHasher

void
ContentHasher::update(const char* data, size_t n)
{
    total_ += n;
    const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
    // Drain into the staging word first so feed granularity can't
    // shift word boundaries (chunked and resident builds must agree).
    while (npend_ != 0 && n != 0) {
        pending_ |= uint64_t(*p++) << (8 * npend_);
        --n;
        if (++npend_ == 8) {
            mix(pending_);
            pending_ = 0;
            npend_ = 0;
        }
    }
    while (n >= 8) {
        uint64_t w;
        std::memcpy(&w, p, 8);
        mix(w);
        p += 8;
        n -= 8;
    }
    while (n != 0) {
        pending_ |= uint64_t(*p++) << (8 * npend_);
        ++npend_;
        --n;
    }
}

uint64_t
ContentHasher::finish()
{
    if (npend_ != 0) {
        mix(pending_);
        pending_ = 0;
        npend_ = 0;
    }
    // Folding the length separates prefixes of each other ("a" vs
    // "a\0") even though the tail word is zero-padded.
    mix(total_);
    uint64_t x = h_;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

uint64_t
hashContent(std::string_view doc)
{
    ContentHasher h;
    h.update(doc.data(), doc.size());
    return h.finish();
}

// --------------------------------------------------------------------
// StructuralIndex queries

size_t
StructuralIndex::next1(const std::vector<uint64_t>& a, size_t from) const
{
    size_t word = from / 64;
    if (word >= words_)
        return kNone;
    uint64_t cur = a[word] & ~bits::maskBelow(static_cast<int>(from % 64));
    for (;;) {
        if (cur != 0)
            return word * 64 +
                   static_cast<size_t>(bits::trailingZeros(cur));
        if (++word >= words_)
            return kNone;
        cur = a[word];
    }
}

size_t
StructuralIndex::next2(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b, size_t from) const
{
    size_t word = from / 64;
    if (word >= words_)
        return kNone;
    uint64_t cur = (a[word] | b[word]) &
                   ~bits::maskBelow(static_cast<int>(from % 64));
    for (;;) {
        if (cur != 0)
            return word * 64 +
                   static_cast<size_t>(bits::trailingZeros(cur));
        if (++word >= words_)
            return kNone;
        cur = a[word] | b[word];
    }
}

size_t
StructuralIndex::countCommas(size_t level, size_t from, size_t to) const
{
    if (from >= to)
        return 0;
    const std::vector<uint64_t>& bm = rows_[level].comma;
    size_t w0 = from / 64;
    size_t w1 = (to - 1) / 64;
    size_t n = 0;
    for (size_t w = w0; w <= w1 && w < words_; ++w) {
        uint64_t cur = bm[w];
        if (w == w0)
            cur &= ~bits::maskBelow(static_cast<int>(from % 64));
        if (w == w1 && to % 64 != 0)
            cur &= bits::maskBelow(static_cast<int>(to % 64));
        n += static_cast<size_t>(bits::popcount(cur));
    }
    return n;
}

size_t
StructuralIndex::selectComma(size_t level, size_t from, size_t to,
                             size_t k) const
{
    if (from >= to || k == 0)
        return kNone;
    const std::vector<uint64_t>& bm = rows_[level].comma;
    size_t w0 = from / 64;
    size_t w1 = (to - 1) / 64;
    for (size_t w = w0; w <= w1 && w < words_; ++w) {
        uint64_t cur = bm[w];
        if (w == w0)
            cur &= ~bits::maskBelow(static_cast<int>(from % 64));
        if (w == w1 && to % 64 != 0)
            cur &= bits::maskBelow(static_cast<int>(to % 64));
        size_t c = static_cast<size_t>(bits::popcount(cur));
        if (c < k) {
            k -= c;
            continue;
        }
        while (--k != 0)
            cur = bits::clearLowest(cur);
        return w * 64 + static_cast<size_t>(bits::trailingZeros(cur));
    }
    return kNone;
}

size_t
StructuralIndex::memoryBytes() const
{
    size_t bytes = sizeof(*this);
    bytes += (entry_in_string_.size() + entry_escaped_.size()) *
             sizeof(uint64_t);
    for (const LevelRows& r : rows_)
        bytes += (r.open.size() + r.close.size() + r.colon.size() +
                  r.comma.size()) *
                 sizeof(uint64_t);
    return bytes;
}

// --------------------------------------------------------------------
// IndexBuilder

namespace {

void
setBit(std::vector<uint64_t>& bm, size_t i)
{
    size_t w = i / 64;
    if (bm.size() <= w)
        bm.resize(w + 1, 0);
    bm[w] |= uint64_t{1} << (i % 64);
}

bool
getBit(const std::vector<uint64_t>& bm, size_t i)
{
    size_t w = i / 64;
    return w < bm.size() && ((bm[w] >> (i % 64)) & 1) != 0;
}

void
assignBit(std::vector<uint64_t>& bm, size_t i, bool v)
{
    size_t w = i / 64;
    if (bm.size() <= w)
        bm.resize(w + 1, 0);
    if (v)
        bm[w] |= uint64_t{1} << (i % 64);
    else
        bm[w] &= ~(uint64_t{1} << (i % 64));
}

} // namespace

IndexBuilder::IndexBuilder(size_t max_levels)
    : max_levels_(std::min(max_levels, StructuralIndex::kMaxLevels))
{
    if (max_levels_ == 0)
        max_levels_ = 1;
}

void
IndexBuilder::feed(const char* data, size_t n)
{
    assert(!finished_);
    hasher_.update(data, n);
    total_bytes_ += n;
    while (n != 0) {
        if (tail_len_ != 0 || n < kBlockSize) {
            size_t take = std::min(kBlockSize - tail_len_, n);
            std::memcpy(tail_ + tail_len_, data, take);
            tail_len_ += take;
            data += take;
            n -= take;
            if (tail_len_ == kBlockSize) {
                processBlock(tail_, kBlockSize);
                tail_len_ = 0;
            }
        } else {
            processBlock(data, kBlockSize);
            data += kBlockSize;
            n -= kBlockSize;
        }
    }
}

void
IndexBuilder::processBlock(const char* data, size_t len)
{
    size_t blk = blocks_;
    // Entry carries are recorded *before* classification: they are
    // what a warping cursor needs to resume the string layer at this
    // block.
    if (carry_.prev_in_string != 0)
        setBit(entry_in_string_, blk);
    if (carry_.prev_escaped != 0)
        setBit(entry_escaped_, blk);
    BlockBits b = len == kBlockSize
                      ? intervals::classifyBlock(data, carry_)
                      : intervals::classifyPartialBlock(data, len, carry_);
    ++blocks_;
    depth_ = scanStructuralBlock(b, blk, depth_, *this);
}

void
IndexBuilder::setRowBit(std::vector<uint64_t> LevelRows::* row,
                        size_t blk, uint64_t bit, int64_t level)
{
    if (level < 0 || static_cast<size_t>(level) >= max_levels_)
        return;
    size_t l = static_cast<size_t>(level);
    if (l >= rows_.size())
        rows_.resize(l + 1);
    std::vector<uint64_t>& v = rows_[l].*row;
    if (v.size() <= blk)
        v.resize(blk + 1, 0);
    v[blk] |= bit;
}

void
IndexBuilder::onOpen(size_t blk, uint64_t bit, int64_t level, bool brace)
{
    // The opener's pre-increment depth is its type-stack slot; its
    // matching closer arrives at exactly this level.
    int64_t slot = level + 1;
    if (slot < 0) {
        clean_ = false; // depth underflowed earlier
        return;
    }
    assignBit(type_stack_, static_cast<size_t>(slot), brace);
    if (static_cast<uint64_t>(slot) + 1 > max_depth_)
        max_depth_ = static_cast<uint64_t>(slot) + 1;
    setRowBit(&LevelRows::open, blk, bit, level);
}

void
IndexBuilder::onClose(size_t blk, uint64_t bit, int64_t level, bool brace)
{
    if (level < 0) {
        clean_ = false; // closer without an opener
        return;
    }
    if (getBit(type_stack_, static_cast<size_t>(level)) != brace)
        clean_ = false; // '}' closing '[' or vice versa
    setRowBit(&LevelRows::close, blk, bit, level);
}

void
IndexBuilder::onSeparator(size_t blk, uint64_t bit, int64_t level,
                          bool colon)
{
    if (level < 0) {
        clean_ = false; // separator outside any container
        return;
    }
    setRowBit(colon ? &LevelRows::colon : &LevelRows::comma, blk, bit,
              level);
}

StructuralIndex
IndexBuilder::finish()
{
    assert(!finished_);
    finished_ = true;
    if (tail_len_ != 0) {
        processBlock(tail_, tail_len_);
        tail_len_ = 0;
    }
    if (depth_ != 0 || carry_.prev_in_string != 0)
        clean_ = false; // unbalanced or in-string at EOF

    StructuralIndex idx;
    idx.content_hash_ = hasher_.finish();
    idx.doc_size_ = total_bytes_;
    idx.max_depth_ = max_depth_;
    idx.usable_ = clean_;
    idx.words_ = blocks_;
    if (clean_) {
        // Pad every row to the full word count so the query walkers
        // never bounds-check per word.
        for (LevelRows& r : rows_) {
            r.open.resize(blocks_, 0);
            r.close.resize(blocks_, 0);
            r.colon.resize(blocks_, 0);
            r.comma.resize(blocks_, 0);
        }
        size_t entry_words = (blocks_ + 63) / 64;
        entry_in_string_.resize(entry_words, 0);
        entry_escaped_.resize(entry_words, 0);
        idx.rows_ = std::move(rows_);
        idx.entry_in_string_ = std::move(entry_in_string_);
        idx.entry_escaped_ = std::move(entry_escaped_);
    }
    return idx;
}

StructuralIndex
StructuralIndex::build(std::string_view json, size_t max_levels)
{
    IndexBuilder b(max_levels);
    b.feed(json);
    return b.finish();
}

StructuralIndex
StructuralIndex::build(intervals::ChunkSource& src, size_t max_levels,
                       size_t chunk_bytes)
{
    IndexBuilder b(max_levels);
    std::vector<char> buf(std::max<size_t>(chunk_bytes, 1));
    for (;;) {
        size_t n = src.read(buf.data(), buf.size());
        if (n == 0)
            break;
        b.feed(buf.data(), n);
    }
    return b.finish();
}

// --------------------------------------------------------------------
// Serialization

namespace {

constexpr char kMagic[4] = {'J', 'S', 'K', 'I'};
/** Fixed-size prefix before the bitmap payload. */
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4;
/** Sanity ceiling: a corrupt doc_size must not drive allocations. */
constexpr uint64_t kMaxDocSize = uint64_t{1} << 48;

void
appendU32(std::string& out, uint32_t v)
{
    char b[4];
    std::memcpy(b, &v, 4);
    out.append(b, 4);
}

void
appendU64(std::string& out, uint64_t v)
{
    char b[8];
    std::memcpy(b, &v, 8);
    out.append(b, 8);
}

void
appendWords(std::string& out, const std::vector<uint64_t>& v)
{
    for (uint64_t w : v)
        appendU64(out, w);
}

struct Reader
{
    std::string_view bytes;
    size_t off = 0;

    void
    need(size_t n, const char* what)
    {
        if (bytes.size() - off < n)
            throw IndexError(bytes.size(),
                             std::string("truncated ") + what);
    }

    uint32_t
    u32(const char* what)
    {
        need(4, what);
        uint32_t v;
        std::memcpy(&v, bytes.data() + off, 4);
        off += 4;
        return v;
    }

    uint64_t
    u64(const char* what)
    {
        need(8, what);
        uint64_t v;
        std::memcpy(&v, bytes.data() + off, 8);
        off += 8;
        return v;
    }

    void
    words(std::vector<uint64_t>& out, size_t n, const char* what)
    {
        need(n * 8, what);
        out.resize(n);
        if (n != 0)
            std::memcpy(out.data(), bytes.data() + off, n * 8);
        off += n * 8;
    }
};

} // namespace

std::string
StructuralIndex::serialize() const
{
    std::string out;
    size_t entry_words = (words_ + 63) / 64;
    out.reserve(kHeaderBytes +
                rows_.size() * 4 * words_ * 8 + 2 * entry_words * 8 + 8);
    out.append(kMagic, 4);
    appendU32(out, kFormatVersion);
    appendU64(out, content_hash_);
    appendU64(out, doc_size_);
    appendU64(out, max_depth_);
    appendU32(out, usable_ ? 1u : 0u);
    appendU32(out, static_cast<uint32_t>(rows_.size()));
    for (const LevelRows& r : rows_) {
        appendWords(out, r.open);
        appendWords(out, r.close);
        appendWords(out, r.colon);
        appendWords(out, r.comma);
    }
    if (usable_) {
        appendWords(out, entry_in_string_);
        appendWords(out, entry_escaped_);
    }
    ContentHasher ck;
    ck.update(out.data(), out.size());
    appendU64(out, ck.finish());
    return out;
}

StructuralIndex
StructuralIndex::deserialize(std::string_view bytes)
{
    Reader r{bytes};
    r.need(4, "magic");
    if (std::memcmp(bytes.data(), kMagic, 4) != 0)
        throw IndexError(0, "bad magic (not a .jski index)");
    r.off = 4;
    uint32_t version = r.u32("version");
    if (version != kFormatVersion)
        throw IndexError(4, "unsupported format version " +
                                std::to_string(version) + " (expected " +
                                std::to_string(kFormatVersion) + ")");
    StructuralIndex idx;
    idx.content_hash_ = r.u64("content hash");
    idx.doc_size_ = r.u64("document size");
    idx.max_depth_ = r.u64("max depth");
    uint32_t flags = r.u32("flags");
    uint32_t levels = r.u32("level count");
    if (idx.doc_size_ > kMaxDocSize)
        throw IndexError(16, "implausible document size");
    if (levels > kMaxLevels)
        throw IndexError(kHeaderBytes - 4,
                         "level count " + std::to_string(levels) +
                             " exceeds limit");
    idx.usable_ = (flags & 1) != 0;
    if (!idx.usable_ && levels != 0)
        throw IndexError(kHeaderBytes - 8,
                         "unusable index carries bitmap payload");
    idx.words_ = (static_cast<size_t>(idx.doc_size_) + 63) / 64;
    size_t entry_words = idx.usable_ ? (idx.words_ + 63) / 64 : 0;
    size_t expected = kHeaderBytes +
                      static_cast<size_t>(levels) * 4 * idx.words_ * 8 +
                      2 * entry_words * 8 + 8;
    if (bytes.size() < expected)
        throw IndexError(bytes.size(),
                         "truncated: expected " + std::to_string(expected) +
                             " bytes, got " + std::to_string(bytes.size()));
    if (bytes.size() > expected)
        throw IndexError(expected, "trailing garbage after index");
    // Verify the checksum before trusting any payload geometry.
    ContentHasher ck;
    ck.update(bytes.data(), bytes.size() - 8);
    uint64_t want;
    std::memcpy(&want, bytes.data() + bytes.size() - 8, 8);
    if (ck.finish() != want)
        throw IndexError(bytes.size() - 8, "checksum mismatch");
    idx.rows_.resize(levels);
    for (LevelRows& row : idx.rows_) {
        r.words(row.open, idx.words_, "open bitmap");
        r.words(row.close, idx.words_, "close bitmap");
        r.words(row.colon, idx.words_, "colon bitmap");
        r.words(row.comma, idx.words_, "comma bitmap");
    }
    if (idx.usable_) {
        r.words(idx.entry_in_string_, entry_words, "entry-carry bitmap");
        r.words(idx.entry_escaped_, entry_words, "entry-carry bitmap");
    }
    return idx;
}

void
saveIndexFile(const StructuralIndex& idx, const std::string& path)
{
    std::string bytes = idx.serialize();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw IndexError(0, "cannot open " + path + " for writing");
    size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    int rc = std::fclose(f);
    if (n != bytes.size() || rc != 0)
        throw IndexError(n, "short write to " + path);
}

StructuralIndex
loadIndexFile(const std::string& path)
{
    try {
        intervals::MappedInput in(path);
        return StructuralIndex::deserialize(in.view());
    } catch (const ParseError& e) {
        // An unreadable sidecar is an artifact problem, not a document
        // one: keep the IndexError contract callers fall back on.
        throw IndexError(e.position(),
                         "read error on " + path + " (" + e.what() + ")");
    }
}

} // namespace jsonski::index
