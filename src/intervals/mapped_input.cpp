#include "intervals/mapped_input.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace jsonski::intervals {

namespace {

/** Closes a descriptor this module opened, on every exit path. */
struct FdCloser
{
    int fd;
    ~FdCloser() { ::close(fd); }
};

} // namespace

ParseError
openError(const std::string& path, int err)
{
    return ParseError(ErrorCode::IoError,
                      "cannot open " + path + ": " + std::strerror(err),
                      0);
}

MappedInput::MappedInput(const std::string& path)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        throw openError(path, errno);
    FdCloser closer{fd};
    load(fd);
}

MappedInput::MappedInput(int fd)
{
    load(fd);
}

MappedInput::~MappedInput()
{
    if (map_ != nullptr)
        ::munmap(map_, map_len_);
}

void
MappedInput::load(int fd)
{
    struct stat st{};
    bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    if (regular && st.st_size > 0) {
        // A descriptor positioned past 0 (stdin after a partial read)
        // must still yield "the rest of the input", as read(2) would.
        off_t at = ::lseek(fd, 0, SEEK_CUR);
        if (at == 0) {
            auto len = static_cast<size_t>(st.st_size);
            void* p = ::mmap(nullptr, len, PROT_READ,
                             MAP_PRIVATE | MAP_POPULATE, fd, 0);
            if (p != MAP_FAILED) {
                map_ = p;
                map_len_ = len;
                view_ = std::string_view(static_cast<const char*>(p), len);
                return;
            }
        }
    }

    // One copy: read(2) straight into a buffer that doubles as needed
    // (sized to the file up front when fstat knows it).
    size_t cap = regular && st.st_size > 0
                     ? static_cast<size_t>(st.st_size) + 1
                     : size_t{64} << 10;
    size_t n = 0;
    copy_.resize(cap);
    for (;;) {
        if (n == copy_.size())
            copy_.resize(copy_.size() * 2);
        ssize_t got = ::read(fd, copy_.data() + n, copy_.size() - n);
        if (got > 0) {
            n += static_cast<size_t>(got);
        } else if (got == 0) {
            break;
        } else if (errno != EINTR) {
            throw ParseError(ErrorCode::IoError, "input read failed", n);
        }
    }
    copy_.resize(n);
    view_ = copy_;
}

} // namespace jsonski::intervals
