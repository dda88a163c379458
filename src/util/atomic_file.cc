#include "util/atomic_file.h"

#include <filesystem>

#include "obs/atomic_io.h"
#include "obs/manifest.h"
#include "util/logging.h"

namespace infuserki::util {

Status WriteFileAtomic(const std::string& path, std::string_view contents,
                       const std::string& fault_point,
                       const RetryOptions& retry) {
  return RetryWithBackoff(
      [&]() -> Status {
        RETURN_IF_ERROR(FAULT_POINT(fault_point));
        std::string error;
        if (!obs::WriteFileAtomically(path, contents, &error)) {
          return Status::Internal(error);
        }
        return Status::OK();
      },
      retry, path);
}

Status QuarantineFile(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound("nothing to quarantine at " + path);
  }
  const std::string quarantined = path + ".corrupt";
  std::filesystem::rename(path, quarantined, ec);
  if (ec) {
    return Status::Internal("cannot quarantine " + path + ": " +
                            ec.message());
  }
  LOG_WARNING << "quarantined unusable file: " << path << " -> "
              << quarantined;
  obs::Lineage::Get().Record("quarantine: " + path);
  return Status::OK();
}

}  // namespace infuserki::util
