// MemEnv: a RAM-backed dmx::Env for the benchmark's database directory.
//
// Every file lives in process memory, so commit latency measures the
// engine rather than the host's disk, whose fsync latency swings by an
// order of magnitude from run to run. The engine still issues every write
// and flush; MemEnv counts the bytes written so the benchmark can report
// write volume without a real device. A crash keeps what was
// written, as a killed process would with an OS page cache: the engine's
// SimulateCrashOnClose decides what reached the files.

#ifndef PERFBENCH_MEM_ENV_H_
#define PERFBENCH_MEM_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/util/env.h"

namespace perfbench {

/// Contents of one in-memory file, shared by its open handles. Bytes live
/// in fixed-size zero-filled chunks, so a growing file never reallocates
/// and copies itself: its memory is its size, as on a RAM filesystem.
/// Chunks are mapped and unmapped directly and are resident from the
/// start, so `*resident` (the env's count of chunk bytes) is exactly the
/// resident memory the files take, and a freed chunk leaves the process.
class MemFileData {
 public:
  static constexpr uint64_t kChunk = 1 << 20;

  explicit MemFileData(std::atomic<uint64_t>* resident)
      : resident_(resident) {}
  ~MemFileData();
  MemFileData(const MemFileData&) = delete;
  MemFileData& operator=(const MemFileData&) = delete;

  /// Copy up to `n` bytes at `offset`; returns the count (short at EOF).
  size_t Read(uint64_t offset, size_t n, char* out) const;
  void Write(uint64_t offset, const char* data, size_t n);
  void Truncate(uint64_t size);
  uint64_t size() const;

 private:
  // Both require mu_ held exclusively.
  void GrowTo(uint64_t size);
  void KeepChunks(size_t n);

  std::atomic<uint64_t>* const resident_;
  mutable std::shared_mutex mu_;
  std::vector<char*> chunks_;  // guarded by mu_
  uint64_t size_ = 0;          // guarded by mu_
};

class MemEnv : public dmx::Env {
 public:
  MemEnv() = default;
  MemEnv(const MemEnv&) = delete;
  MemEnv& operator=(const MemEnv&) = delete;

  dmx::Status NewRandomAccessFile(
      const std::string& path, bool create,
      std::unique_ptr<dmx::RandomAccessFile>* out) override;
  dmx::Status FileExists(const std::string& path) override;
  dmx::Status GetFileSize(const std::string& path, uint64_t* out) override;
  dmx::Status DeleteFile(const std::string& path) override;
  dmx::Status RenameFile(const std::string& from,
                         const std::string& to) override;
  dmx::Status CreateDir(const std::string& path) override;
  dmx::Status SyncDir(const std::string& path) override;
  dmx::Status ListDir(const std::string& path,
                      std::vector<std::string>* out) override;

  /// Total bytes of the files directly inside `dir`.
  uint64_t DirBytes(const std::string& dir);
  /// Size of the file at `path`, 0 when absent.
  uint64_t FileBytes(const std::string& path);

  /// Remove `dir` and every file in it.
  void RemoveDir(const std::string& dir);

  /// Bytes passed to RandomAccessFile::Write since the env was created.
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  void CountWrite(uint64_t n) {
    bytes_written_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Resident bytes held by the files' chunks, so the benchmark can tell
  /// the engine's own memory from the database's bytes.
  uint64_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }

 private:
  // Declared before files_, which count into it as they are destroyed.
  std::atomic<uint64_t> resident_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<MemFileData>> files_;  // guarded
  std::set<std::string> dirs_;                                 // guarded
};

}  // namespace perfbench

#endif  // PERFBENCH_MEM_ENV_H_
