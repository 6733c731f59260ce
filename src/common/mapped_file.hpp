/**
 * @file
 * Read-only memory-mapped file. The trace frontend decodes multi-GB
 * captures through this: the kernel pages record bytes in on demand,
 * and a reader hands back what it has passed with release(). The trace
 * readers keep 1 MiB per lane behind their cursor (kTraceResidentWindow,
 * workload/trace.hpp), so their resident set is bounded by the lane
 * count, not the file size (docs/PERF.md, "Bounded trace input").
 *
 * release() cannot change what a later read sees. The mapping is
 * PROT_READ + MAP_PRIVATE, so it never holds a copy-on-write page:
 * every resident page is the page cache's copy of the file, and
 * MADV_DONTNEED only unmaps it. The next read faults the same bytes
 * back from the file. Trace files are published by temp file + rename,
 * so the inode under a live mapping is never rewritten.
 */

#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace cgct {

/** RAII read-only mapping of a whole file. */
class MappedFile
{
  public:
    MappedFile() = default;

    ~MappedFile() { close(); }

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** Map @p path read-only. Returns an error message, "" on success. */
    std::string
    open(const std::string &path)
    {
        close();
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            return "cannot open '" + path + "': " + std::strerror(errno);
        struct stat st;
        if (::fstat(fd, &st) != 0) {
            const std::string err = "cannot stat '" + path +
                                    "': " + std::strerror(errno);
            ::close(fd);
            return err;
        }
        size_ = static_cast<std::uint64_t>(st.st_size);
        if (size_ == 0) {
            ::close(fd);
            return "'" + path + "' is empty";
        }
        void *p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd); // The mapping keeps the file alive.
        if (p == MAP_FAILED) {
            size_ = 0;
            return "cannot mmap '" + path + "': " + std::strerror(errno);
        }
        data_ = static_cast<const std::uint8_t *>(p);
        return "";
    }

    void
    close()
    {
        if (data_) {
            ::munmap(const_cast<std::uint8_t *>(data_), size_);
            data_ = nullptr;
            size_ = 0;
        }
    }

    /**
     * Drop the whole pages inside [@p from, @p to) (byte offsets) from
     * the resident set, rounding both ends inward, so a page that also
     * holds bytes outside the range stays mapped. Returns where the
     * next release should start: @p to rounded down to a page, but never
     * below @p from. A failed madvise only leaves the pages resident,
     * which changes no later read, so its result is not checked.
     */
    std::uint64_t
    release(std::uint64_t from, std::uint64_t to)
    {
        static const std::uint64_t page =
            static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
        const std::uint64_t begin = (from + page - 1) & ~(page - 1);
        const std::uint64_t end = std::min(to, size_) & ~(page - 1);
        if (begin >= end)
            return std::max(from, end);
        ::madvise(const_cast<std::uint8_t *>(data_) + begin, end - begin,
                  MADV_DONTNEED);
        return end;
    }

    const std::uint8_t *data() const { return data_; }
    std::uint64_t size() const { return size_; }
    bool mapped() const { return data_ != nullptr; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::uint64_t size_ = 0;
};

} // namespace cgct
