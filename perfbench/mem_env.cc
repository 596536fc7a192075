#include "mem_env.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {
namespace {

using dmx::Status;

class MemFile : public dmx::RandomAccessFile {
 public:
  MemFile(std::shared_ptr<MemFileData> data, MemEnv* env)
      : data_(std::move(data)), env_(env) {}

  Status Read(uint64_t offset, size_t n, char* scratch,
              size_t* out_n) override {
    *out_n = data_->Read(offset, n, scratch);
    return Status::OK();
  }

  Status Write(uint64_t offset, const char* data, size_t n) override {
    data_->Write(offset, data, n);
    env_->CountWrite(n);
    return Status::OK();
  }

  Status Truncate(uint64_t size) override {
    data_->Truncate(size);
    return Status::OK();
  }

  Status Sync(bool) override { return Status::OK(); }

  Status Size(uint64_t* out) override {
    *out = data_->size();
    return Status::OK();
  }

  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<MemFileData> data_;
  MemEnv* env_;
};

bool DirectlyIn(const std::string& path, const std::string& dir) {
  return path.size() > dir.size() + 1 &&
         path.compare(0, dir.size(), dir) == 0 &&
         path[dir.size()] == '/' &&
         path.find('/', dir.size() + 1) == std::string::npos;
}

}  // namespace

MemFileData::~MemFileData() { KeepChunks(0); }

size_t MemFileData::Read(uint64_t offset, size_t n, char* out) const {
  std::shared_lock lock(mu_);
  if (offset >= size_) return 0;
  const size_t total =
      static_cast<size_t>(std::min<uint64_t>(n, size_ - offset));
  for (size_t done = 0; done < total;) {
    const uint64_t at = offset + done;
    const size_t in_chunk = static_cast<size_t>(
        std::min<uint64_t>(total - done, kChunk - at % kChunk));
    std::memcpy(out + done, chunks_[at / kChunk] + at % kChunk,
                in_chunk);
    done += in_chunk;
  }
  return total;
}

void MemFileData::Write(uint64_t offset, const char* data, size_t n) {
  std::unique_lock lock(mu_);
  GrowTo(std::max<uint64_t>(size_, offset + n));
  for (size_t done = 0; done < n;) {
    const uint64_t at = offset + done;
    const size_t in_chunk = static_cast<size_t>(
        std::min<uint64_t>(n - done, kChunk - at % kChunk));
    std::memcpy(chunks_[at / kChunk] + at % kChunk, data + done,
                in_chunk);
    done += in_chunk;
  }
}

void MemFileData::Truncate(uint64_t size) {
  std::unique_lock lock(mu_);
  if (size >= size_) {
    GrowTo(size);
    return;
  }
  // Shrink, and zero the cut-off tail of the last kept chunk so a later
  // extension reads zeros there.
  KeepChunks((size + kChunk - 1) / kChunk);
  if (size % kChunk != 0) {
    std::memset(chunks_.back() + size % kChunk, 0,
                kChunk - size % kChunk);
  }
  size_ = size;
}

uint64_t MemFileData::size() const {
  std::shared_lock lock(mu_);
  return size_;
}

void MemFileData::GrowTo(uint64_t size) {
  while (chunks_.size() * kChunk < size) {
    // Anonymous memory is zero-filled; MAP_POPULATE makes it resident now.
    void* p = mmap(nullptr, kChunk, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) {
      fprintf(stderr, "perfbench: out of memory for the in-memory files\n");
      abort();
    }
    chunks_.push_back(static_cast<char*>(p));
    resident_->fetch_add(kChunk, std::memory_order_relaxed);
  }
  size_ = size;
}

void MemFileData::KeepChunks(size_t n) {
  while (chunks_.size() > n) {
    munmap(chunks_.back(), kChunk);
    chunks_.pop_back();
    resident_->fetch_sub(kChunk, std::memory_order_relaxed);
  }
}

Status MemEnv::NewRandomAccessFile(
    const std::string& path, bool create,
    std::unique_ptr<dmx::RandomAccessFile>* out) {
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (!create) return Status::NotFound(path);
    if (!dirs_.contains(dmx::DirnameOf(path))) {
      return Status::NotFound("no directory for " + path);
    }
    it = files_.emplace(path, std::make_shared<MemFileData>(&resident_)).first;
  }
  *out = std::make_unique<MemFile>(it->second, this);
  return Status::OK();
}

Status MemEnv::FileExists(const std::string& path) {
  std::lock_guard lock(mu_);
  if (files_.contains(path) || dirs_.contains(path)) return Status::OK();
  return Status::NotFound(path);
}

Status MemEnv::GetFileSize(const std::string& path, uint64_t* out) {
  std::lock_guard lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  *out = it->second->size();
  return Status::OK();
}

Status MemEnv::DeleteFile(const std::string& path) {
  std::lock_guard lock(mu_);
  if (files_.erase(path) == 0) return Status::NotFound(path);
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  std::lock_guard lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound(from);
  std::shared_ptr<MemFileData> data = it->second;
  files_.erase(it);
  files_[to] = std::move(data);
  return Status::OK();
}

Status MemEnv::CreateDir(const std::string& path) {
  std::lock_guard lock(mu_);
  dirs_.insert(path);
  return Status::OK();
}

Status MemEnv::SyncDir(const std::string& path) {
  std::lock_guard lock(mu_);
  if (!dirs_.contains(path)) return Status::NotFound(path);
  return Status::OK();
}

Status MemEnv::ListDir(const std::string& path,
                       std::vector<std::string>* out) {
  std::lock_guard lock(mu_);
  if (!dirs_.contains(path)) return Status::NotFound(path);
  for (const auto& [name, data] : files_) {
    if (DirectlyIn(name, path)) out->push_back(name.substr(path.size() + 1));
  }
  for (const std::string& d : dirs_) {
    if (DirectlyIn(d, path)) out->push_back(d.substr(path.size() + 1));
  }
  return Status::OK();
}

uint64_t MemEnv::DirBytes(const std::string& dir) {
  std::lock_guard lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, data] : files_) {
    if (DirectlyIn(name, dir)) total += data->size();
  }
  return total;
}

uint64_t MemEnv::FileBytes(const std::string& path) {
  uint64_t size = 0;
  return GetFileSize(path, &size).ok() ? size : 0;
}

void MemEnv::RemoveDir(const std::string& dir) {
  std::lock_guard lock(mu_);
  for (auto it = files_.begin(); it != files_.end();) {
    it = DirectlyIn(it->first, dir) ? files_.erase(it) : std::next(it);
  }
  dirs_.erase(dir);
}

}  // namespace perfbench
