#ifndef INFUSERKI_OBS_ATOMIC_IO_H_
#define INFUSERKI_OBS_ATOMIC_IO_H_

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>

namespace infuserki::obs {

/// Publishes `contents` at `path` atomically: the bytes go to `path.tmp`,
/// which is fsync'd and renamed over `path`, then the containing directory
/// is fsync'd so the rename itself is durable. Readers only ever see the
/// old file or the complete new one. On failure the tmp file is removed,
/// `path` is untouched, and `*error` (when given) names the failed step.
/// This is the repo's one publish protocol: util::WriteFileAtomic wraps it
/// with a failpoint and retries (obs sits below util, so it has neither).
inline bool WriteFileAtomically(const std::string& path,
                                std::string_view contents,
                                std::string* error = nullptr) {
  const std::string tmp = path + ".tmp";
  int fd = -1;
  // Arguments are evaluated before the body runs, so `why` captures errno
  // before close/unlink can clobber it.
  auto fail = [&](const std::string& step, const std::string& why) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    if (error != nullptr) *error = step + ": " + why;
    return false;
  };
  fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return fail("cannot open " + tmp, std::strerror(errno));
  size_t offset = 0;
  while (offset < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + offset,
                        contents.size() - offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("short write to " + tmp, std::strerror(errno));
    }
    offset += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) return fail("fsync of " + tmp, std::strerror(errno));
  int closed = ::close(fd);
  fd = -1;
  if (closed != 0) return fail("close of " + tmp, std::strerror(errno));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return fail("rename " + tmp + " -> " + path, ec.message());
  // Best-effort: a failed directory fsync cannot tear the file.
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return true;
}

}  // namespace infuserki::obs

#endif  // INFUSERKI_OBS_ATOMIC_IO_H_
