#ifndef INFUSERKI_UTIL_SERIALIZE_H_
#define INFUSERKI_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/status.h"

namespace infuserki::util {

/// Binary checkpoint framing, format v2. Every file is
///
///   [u32 file magic "IKF2"] [u32 format version]
///   [payload bytes]
///   [u64 payload size] [u32 crc32(payload)] [u32 footer magic]
///
/// All integers are fixed-width little-endian (we only target little-endian
/// hosts); floats are IEEE-754. The CRC lets readers reject any truncation
/// or bit corruption before a single payload byte is parsed, and the
/// version field lets future formats evolve without silent misreads.
constexpr uint32_t kFrameFileMagic = 0x494b4632;    // "IKF2"
constexpr uint32_t kFrameFormatVersion = 2;
constexpr uint32_t kFrameFooterMagic = 0x444e4532;  // "2END"
constexpr size_t kFrameHeaderSize = 8;
constexpr size_t kFrameFooterSize = 16;

/// Binary writer for checkpoints. The payload is buffered in memory;
/// Finish() frames it (header + CRC32 footer) and publishes the file
/// atomically (tmp -> fsync -> rename, see util::WriteFileAtomic), so a
/// crash mid-save never leaves a half-written file under the final path.
/// A destroyed, unfinished writer leaves no trace on disk.
class BinaryWriter {
 public:
  /// `fault_point` names the failpoint hit on each write attempt (see
  /// util/fault.h); call sites pick a stable name per artifact kind.
  explicit BinaryWriter(std::string path,
                        std::string fault_point = "serialize/write");

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF32(float v) { WriteRaw(&v, sizeof(v)); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }

  void WriteFloatVector(const std::vector<float>& v) {
    WriteU64(v.size());
    WriteRaw(v.data(), v.size() * sizeof(float));
  }

  /// Frames the payload and writes the file atomically. Call exactly once.
  Status Finish();

 private:
  void WriteRaw(const void* data, size_t size) {
    payload_.append(static_cast<const char*>(data), size);
  }

  std::string path_;
  std::string fault_point_;
  std::string payload_;
  bool finished_ = false;
};

/// Counterpart reader. The whole file is loaded and its frame verified up
/// front (magic, version, payload size, CRC32): a corrupt or truncated file
/// flips status() to kDataLoss before any accessor runs, so parsers never
/// see even one garbage byte. Accessors report logical over-reads through
/// ok(), as in v1.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  bool ok() const { return status_.ok(); }
  /// OK, kNotFound (no such file), or kDataLoss (bad frame / over-read).
  const Status& status() const { return status_; }
  const std::string& path() const { return path_; }

  uint32_t ReadU32() {
    uint32_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  uint64_t ReadU64() {
    uint64_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }
  float ReadF32() {
    float v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }

  std::string ReadString() {
    uint64_t size = ReadU64();
    if (!ok() || size > Remaining()) {
      Fail();
      return "";
    }
    std::string s(size, '\0');
    ReadRaw(s.data(), size);
    return s;
  }

  std::vector<float> ReadFloatVector() {
    uint64_t size = ReadU64();
    if (!ok() || size * sizeof(float) > Remaining()) {
      Fail();
      return {};
    }
    std::vector<float> v(size);
    ReadRaw(v.data(), size * sizeof(float));
    return v;
  }

 private:
  size_t Remaining() const { return payload_.size() - pos_; }

  void Fail() {
    if (status_.ok()) {
      status_ = Status::DataLoss("read past end of payload in " + path_);
    }
  }

  void ReadRaw(void* data, size_t size) {
    if (!ok() || size > Remaining()) {
      Fail();
      std::memset(data, 0, size);
      return;
    }
    std::memcpy(data, payload_.data() + pos_, size);
    pos_ += size;
  }

  std::string path_;
  std::string payload_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace infuserki::util

#endif  // INFUSERKI_UTIL_SERIALIZE_H_
