/**
 * @file
 * Test hook shared by the streaming entry points: setting
 * JSONSKI_TEST_CHUNK_BYTES=N in the environment reroutes the
 * whole-buffer run() of Streamer and MultiStreamer through the chunked
 * ingestion path with N-byte chunks (runResident and runIndexed stay
 * resident).  The CI seam leg runs the whole
 * test suite this way under ASan+UBSan, so every existing test doubles
 * as a chunk-seam test without knowing it.
 */
#ifndef JSONSKI_SKI_CHUNK_OVERRIDE_H
#define JSONSKI_SKI_CHUNK_OVERRIDE_H

#include <cstddef>
#include <cstdlib>

namespace jsonski::ski {

/** Chunk size from JSONSKI_TEST_CHUNK_BYTES, or 0 when unset. */
inline size_t
testChunkBytesOverride()
{
    static const size_t v = [] {
        const char* e = std::getenv("JSONSKI_TEST_CHUNK_BYTES");
        if (e == nullptr || *e == '\0')
            return size_t{0};
        return static_cast<size_t>(std::strtoull(e, nullptr, 10));
    }();
    return v;
}

} // namespace jsonski::ski

#endif // JSONSKI_SKI_CHUNK_OVERRIDE_H
