/**
 * @file
 * Read-only memory-mapped file. The trace frontend decodes multi-GB
 * captures through this: the kernel pages record bytes in on demand.
 * Every page a replay touches stays mapped and counts toward its
 * resident set; the pages are clean and file-backed, so the kernel can
 * reclaim them under memory pressure (see docs/TRACE_FORMAT.md).
 */

#pragma once

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

    const std::uint8_t *data() const { return data_; }
    std::uint64_t size() const { return size_; }
    bool mapped() const { return data_ != nullptr; }

  private:
    const std::uint8_t *data_ = nullptr;
    std::uint64_t size_ = 0;
};

} // namespace cgct
