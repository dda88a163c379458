#ifndef INFUSERKI_UTIL_ATOMIC_FILE_H_
#define INFUSERKI_UTIL_ATOMIC_FILE_H_

#include <string>
#include <string_view>

#include "util/fault.h"
#include "util/status.h"

namespace infuserki::util {

/// Publishes `contents` at `path` atomically through
/// obs::WriteFileAtomically (tmp -> fsync -> rename -> directory fsync), so
/// readers only ever observe the old file or the complete new one — never
/// a torn write. The named failpoint is hit once per attempt, and
/// transient failures (injected or real kInternal I/O errors, whose
/// message names the failed step) are retried with exponential backoff.
Status WriteFileAtomic(const std::string& path, std::string_view contents,
                       const std::string& fault_point = "io/atomic_write",
                       const RetryOptions& retry = {});

/// Moves an unusable file aside to `path + ".corrupt"` (overwriting any
/// previous quarantine of the same path) so it can be inspected post-mortem
/// without being picked up by loaders again. Records the event in the obs
/// run lineage. Returns NotFound if `path` does not exist.
Status QuarantineFile(const std::string& path);

}  // namespace infuserki::util

#endif  // INFUSERKI_UTIL_ATOMIC_FILE_H_
