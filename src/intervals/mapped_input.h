/**
 * @file
 * Read-only whole-input loader: the resident counterpart of the chunk
 * sources in chunk_source.h.
 *
 * A MappedInput exposes one std::string_view over an entire input —
 * a named file or an already-open descriptor such as stdin.  How the
 * bytes become resident is decided by fstat(), never by the caller:
 *
 *  - Regular non-empty files (stdin redirected from a file included)
 *    are mmap()ed read-only and pre-faulted (MAP_POPULATE), so the
 *    view costs no copy: its bytes are the page cache's file-backed
 *    pages.
 *  - Pipes, ttys, sockets, empty files, and files whose mmap fails
 *    are read(2) once into a geometrically grown buffer.
 *
 * A mapped view has no slack past size(): the byte after the last one
 * may sit on an unmapped page, so every consumer must honour the
 * library-wide bound "never read at or past size()" (util/error.h).
 * The no-overread wall (tests/mapped_input_test.cpp) pins this with a
 * PROT_NONE guard page directly after each document.
 *
 * Caveat (DESIGN.md §9): truncating a file while it is mapped makes a
 * later access to the lost pages raise SIGBUS.  Bounded-memory chunked
 * ingestion (ChunkSource + --chunk-bytes) has no such hazard.
 */
#ifndef JSONSKI_INTERVALS_MAPPED_INPUT_H
#define JSONSKI_INTERVALS_MAPPED_INPUT_H

#include <cstddef>
#include <string>
#include <string_view>

#include "util/error.h"

namespace jsonski::intervals {

/**
 * The typed error every input-opening path raises for @p path:
 * ParseError(ErrorCode::IoError, "cannot open PATH: <strerror(err)>")
 * at byte 0.
 */
ParseError openError(const std::string& path, int err);

/** RAII whole-input view; see file comment. */
class MappedInput
{
  public:
    /**
     * Load the file at @p path.
     * @throws ParseError(ErrorCode::IoError) when it cannot be opened
     *         (openError()) or read (positioned at the bytes read).
     */
    explicit MappedInput(const std::string& path);

    /**
     * Load everything readable from @p fd (e.g. 0 for stdin); the
     * descriptor is neither owned nor closed.
     * @throws ParseError(ErrorCode::IoError) on a read failure.
     */
    explicit MappedInput(int fd);

    ~MappedInput();

    MappedInput(const MappedInput&) = delete;
    MappedInput& operator=(const MappedInput&) = delete;

    /** The whole input; valid while this object lives. */
    std::string_view view() const { return view_; }

    /** True when the view is a file mapping rather than a copy. */
    bool mapped() const { return map_ != nullptr; }

  private:
    void load(int fd);

    void* map_ = nullptr;
    size_t map_len_ = 0;
    std::string copy_; ///< read(2) fallback storage
    std::string_view view_;
};

} // namespace jsonski::intervals

#endif // JSONSKI_INTERVALS_MAPPED_INPUT_H
