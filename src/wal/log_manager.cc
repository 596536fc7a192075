#include "src/wal/log_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace dmx {

namespace {

// Sizes, magics, and the generation-mixing frame crc moved to wal_format.h
// when segments arrived (the archiver and dmx_backup_verify share them).
uint32_t FrameCrc(uint32_t gen, const char* body, size_t n) {
  return WalFrameCrc(gen, body, n);
}

}  // namespace

LogManager::LogManager() {
  MetricsRegistry* metrics = MetricsRegistry::Global();
  metric_appends_ = metrics->GetCounter("wal.appends");
  metric_append_ns_ = metrics->GetHistogram("wal.append_ns");
  metric_syncs_ = metrics->GetCounter("wal.syncs");
  metric_sync_ns_ = metrics->GetHistogram("wal.sync_ns");
  metric_group_commits_ = metrics->GetCounter("wal.group_commits");
  metric_group_size_ = metrics->GetHistogram("wal.group_size");
  metric_relaxed_commits_ = metrics->GetCounter("wal.relaxed_commits");
  metric_segments_sealed_ = metrics->GetCounter("wal.segments_sealed");
  metric_sealed_unarchived_ = metrics->GetCounter("wal.sealed_unarchived");
}

LogManager::~LogManager() {
  StopFlusher();
  (void)Close();  // best-effort final flush; errors unreportable here
}

void LogManager::SetGroupCommit(bool enabled) {
  MutexLock lock(&mu_);
  group_commit_ = enabled;
}

void LogManager::StartFlusher(uint64_t interval_us,
                              std::function<void(const Status&)> on_failure) {
  if (flusher_.joinable()) return;
  {
    MutexLock lock(&mu_);
    flusher_stop_ = false;
    flusher_interval_us_ = interval_us;
    flusher_on_failure_ = std::move(on_failure);
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void LogManager::StopFlusher() {
  if (!flusher_.joinable()) return;
  {
    MutexLock lock(&mu_);
    flusher_stop_ = true;
  }
  flusher_cv_.NotifyAll();
  flusher_.join();
}

void LogManager::FlusherLoop() {
  mu_.Lock();
  while (!flusher_stop_) {
    if (relaxed_unflushed_.load(std::memory_order_relaxed) == 0 || !file_ ||
        poison_ != PoisonKind::kNone) {
      // Nothing to do (or the log is down — background recovery flushes
      // the pending tail itself via Resume): sleep until the next relaxed
      // commit, a Resume, or Stop wakes us.
      flusher_cv_.Wait();
      continue;
    }
    // Absorb a burst: give other relaxed committers one interval to join
    // this group before paying the sync.
    (void)flusher_cv_.WaitUntil(
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(flusher_interval_us_));
    if (flusher_stop_ || !file_) continue;
    Status s = FlushToLocked(next_lsn_.load(std::memory_order_relaxed) - 1);
    if (!s.ok()) {
      // Report with mu_ released: the ErrorHandler wakes its recovery
      // thread, whose repair path re-enters this LogManager.
      auto cb = flusher_on_failure_;
      mu_.Unlock();
      if (cb) cb(s);
      mu_.Lock();
      if (flusher_stop_) break;
      // Don't spin against a persistent fault; the next relaxed commit or
      // a successful recovery flush wakes us.
      flusher_cv_.Wait();
    }
  }
  mu_.Unlock();
}

// Recovery-time open: the log is not yet shared, and discovery must
// finish before any append.
// deeplint: allow(blocking-under-lock, recovery open precedes sharing)
Status LogManager::Open(const std::string& path, bool create, Env* env) {
  MutexLock lock(&mu_);
  env_ = env != nullptr ? env : Env::Default();
  const bool existed = env_->FileExists(path).ok();
  DMX_RETURN_IF_ERROR(env_->NewRandomAccessFile(path, create, &file_));
  path_ = path;
  poison_ = PoisonKind::kNone;
  poison_cause_ = Status::OK();
  buffer_.clear();
  flush_active_ = false;
  flush_target_ = 0;
  flush_result_ = Status::OK();
  buffered_commits_ = 0;
  relaxed_unflushed_.store(0, std::memory_order_release);
  uint64_t size = 0;
  Status s = file_->Size(&size);
  if (s.ok() && size == 0) {
    base_lsn_ = 0;
    gen_ = 1;
    s = WriteHeaderLocked();
    if (s.ok()) s = file_->Sync(/*data_only=*/false);
    if (s.ok() && !existed) s = env_->SyncDir(DirnameOf(path));
    size = kLogHeaderSize;
  } else if (s.ok()) {
    char hdr[kLogHeaderSize];
    size_t n = 0;
    s = file_->Read(0, kLogHeaderSize, hdr, &n);
    if (s.ok() && n != kLogHeaderSize) {
      s = Status::Corruption("short log header in '" + path + "'");
    }
    if (s.ok() && DecodeFixed32(hdr) != kLogMagic) {
      s = Status::Corruption("bad log magic in '" + path + "'");
    }
    if (s.ok() && DecodeFixed32(hdr + 16) != Crc32c(hdr, 16)) {
      s = Status::Corruption("log header checksum mismatch in '" + path + "'");
    }
    if (s.ok()) {
      base_lsn_ = DecodeFixed64(hdr + 4);
      gen_ = DecodeFixed32(hdr + 12);
    }
  }
  if (!s.ok()) {
    (void)file_->Close();  // the open failure takes precedence
    file_.reset();
    return s;
  }
  const Lsn next = base_lsn_ + static_cast<Lsn>(size) - kLogHeaderSize + 1;
  next_lsn_.store(next, std::memory_order_release);
  flushed_lsn_.store(next - 1, std::memory_order_release);
  buffer_start_ = next;
  s = DiscoverSegmentsLocked();
  if (!s.ok()) {
    // Surface the discovery error; the close is cleanup.
    (void)file_->Close();
    file_.reset();
    return s;
  }
  return Status::OK();
}

// Runs inside Open, before the log is shared.
// deeplint: allow(blocking-under-lock, open-time discovery precedes sharing)
Status LogManager::DiscoverSegmentsLocked() {
  segments_.clear();
  next_seg_seqno_ = 1;
  const std::string dir = DirnameOf(path_);
  const size_t slash = path_.find_last_of('/');
  const std::string basename =
      slash == std::string::npos ? path_ : path_.substr(slash + 1);
  std::vector<std::string> names;
  Status ls = env_->ListDir(dir, &names);
  if (ls.IsNotFound()) return Status::OK();
  DMX_RETURN_IF_ERROR(ls);
  for (const std::string& name : names) {
    uint32_t seqno = 0;
    if (!ParseSegmentName(name, basename, &seqno)) continue;
    const std::string seg_path = dir + "/" + name;
    std::unique_ptr<RandomAccessFile> f;
    SegmentHeader hdr;
    char buf[kSegHeaderSize];
    size_t n = 0;
    Status s = env_->NewRandomAccessFile(seg_path, /*create=*/false, &f);
    if (s.ok()) s = f->Read(0, kSegHeaderSize, buf, &n);
    if (s.ok() && n == kSegHeaderSize) s = DecodeSegmentHeader(buf, &hdr);
    // Read-only header probe; nothing buffered to lose.
    if (f) (void)f->Close();
    if (!s.ok() || n != kSegHeaderSize || hdr.base_lsn >= base_lsn_) {
      // Either an unreadable header (the partially written product of a
      // rotation that crashed before its segment sync) or a seemingly
      // valid segment whose frames the live log still owns (the rotation
      // crashed after the segment sync but before the live header
      // advanced). Both are duplicates of live content: discard.
      (void)env_->DeleteFile(seg_path);
      continue;
    }
    SegmentInfo info;
    info.seqno = hdr.seqno;
    info.base_lsn = hdr.base_lsn;
    info.end_lsn = hdr.end_lsn;
    info.gen = hdr.gen;
    info.path = seg_path;
    segments_.push_back(std::move(info));
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.seqno < b.seqno;
            });
  // The retained chain must be contiguous and end exactly at the live
  // base — reclaim only ever removes a prefix, so any gap means lost WAL.
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Lsn expect_end =
        i + 1 < segments_.size() ? segments_[i + 1].base_lsn : base_lsn_;
    if (segments_[i].end_lsn != expect_end) {
      return Status::Corruption(
          "wal segment chain gap after '" + segments_[i].path +
          "' (ends at lsn " + std::to_string(segments_[i].end_lsn) +
          ", next begins at " + std::to_string(expect_end) + ")");
    }
  }
  if (!segments_.empty()) next_seg_seqno_ = segments_.back().seqno + 1;
  UpdateLagGaugeLocked();
  return Status::OK();
}

void LogManager::UpdateLagGaugeLocked() {
  uint64_t n = 0;
  for (const SegmentInfo& seg : segments_) {
    if (!seg.archived) ++n;
  }
  metric_sealed_unarchived_->Reset();
  metric_sealed_unarchived_->Increment(n);
}

// A step of Open, Truncate, Rotate and Resume, each exclusive by design.
// deeplint: allow(blocking-under-lock, header rewrite inside exclusive ops)
Status LogManager::WriteHeaderLocked() {
  std::string enc;
  PutFixed32(&enc, kLogMagic);
  PutFixed64(&enc, base_lsn_);
  PutFixed32(&enc, gen_);
  PutFixed32(&enc, Crc32c(enc.data(), enc.size()));
  PutFixed32(&enc, 0);  // pad
  return file_->Write(0, enc.data(), enc.size());
}

// Teardown: final flush after the group-commit leader quiesces; no
// writer can need mu_ again.
// deeplint: allow(blocking-under-lock, teardown flush after quiesce)
Status LogManager::Close() {
  MutexLock lock(&mu_);
  if (!file_) return Status::OK();
  // Let any in-flight group flush finish before the file goes away (its
  // leader holds a raw file pointer across the unlocked fsync).
  while (flush_active_) flush_cv_.Wait();
  Status s =
      FlushToLocked(next_lsn_.load(std::memory_order_relaxed) - 1);
  Status c = file_->Close();
  file_.reset();
  flusher_cv_.NotifyAll();  // flusher re-checks file_ and parks
  return s.ok() ? c : s;
}

Status LogManager::PoisonedLocked() const {
  return Status::IOError("log poisoned by failed truncation (" +
                         poison_cause_.ToString() + ")");
}

Status LogManager::AppendLocked(LogRecord* rec) {
  ScopedTimer timer((append_tick_++ & 63) == 0 ? metric_append_ns_ : nullptr);
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  rec->lsn = next_lsn_.load(std::memory_order_relaxed);
  std::string body;
  rec->EncodeTo(&body);
  std::string framed;
  PutFixed32(&framed, static_cast<uint32_t>(body.size()));
  PutFixed32(&framed, FrameCrc(gen_, body.data(), body.size()));
  framed += body;
  buffer_ += framed;
  next_lsn_.store(rec->lsn + framed.size(), std::memory_order_release);
  records_appended_.Increment();
  metric_appends_->Increment();
  if (rec->type == LogRecType::kCommit) ++buffered_commits_;
  return Status::OK();
}

Status LogManager::Append(LogRecord* rec) {
  MutexLock lock(&mu_);
  return AppendLocked(rec);
}

Status LogManager::AppendAndFlush(LogRecord* rec) {
  MutexLock lock(&mu_);
  const size_t buffered_before = buffer_.size();
  DMX_RETURN_IF_ERROR(AppendLocked(rec));
  const size_t frame_size = buffer_.size() - buffered_before;
  Status s = FlushToLocked(rec->lsn);
  if (!s.ok() && poison_ == PoisonKind::kNone && !flush_active_ &&
      rec->lsn >= buffer_start_ &&
      rec->lsn + static_cast<Lsn>(frame_size) ==
          next_lsn_.load(std::memory_order_relaxed)) {
    // The failed flush left our frame as the unflushed buffer tail (no
    // concurrent append buried it, no snapshot is in flight): drop it
    // again. The caller's last_lsn chain stays untouched and its Abort
    // rolls back normally. If concurrent committers did append past us,
    // the frame stays buffered — their retry/abort chain replays the
    // transaction to the aborted state, so recovery never resurrects it
    // as committed. Caveat (documented in DESIGN.md §11): if the failed
    // flush's write reached the platter and the process dies before the
    // tail bytes are overwritten by a later flush, replay can still see
    // this record — an errored commit is ambiguous, like every WAL
    // system's.
    buffer_.resize(static_cast<size_t>(rec->lsn - buffer_start_));
    next_lsn_.store(rec->lsn, std::memory_order_release);
    if (buffered_commits_ > 0) --buffered_commits_;
    rec->lsn = kInvalidLsn;
  }
  return s;
}

Status LogManager::AppendCommitRelaxed(LogRecord* rec) {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(AppendLocked(rec));
  relaxed_unflushed_.fetch_add(1, std::memory_order_release);
  metric_relaxed_commits_->Increment();
  flusher_cv_.NotifyOne();
  return Status::OK();
}

Status LogManager::FlushTo(Lsn lsn) {
  MutexLock lock(&mu_);
  return FlushToLocked(lsn);
}

Status LogManager::FlushToLocked(Lsn lsn) {
  return group_commit_ ? GroupFlushLocked(lsn) : LegacyFlushLocked(lsn);
}

// The legacy protocol is the flush with mu_ held (group commit is not).
// deeplint: allow(blocking-under-lock, legacy flush holds mu_ by design)
Status LogManager::LegacyFlushLocked(Lsn lsn) {
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  if (lsn <= flushed_lsn_.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  if (buffer_.empty()) return Status::OK();
  ScopedTimer timer(metric_sync_ns_);
  metric_syncs_->Increment();
  DMX_RETURN_IF_ERROR(file_->Write(
      buffer_start_ - base_lsn_ - 1 + kLogHeaderSize, buffer_.data(),
      buffer_.size()));
  DMX_RETURN_IF_ERROR(file_->Sync(/*data_only=*/true));
  buffer_start_ += buffer_.size();
  flushed_lsn_.store(buffer_start_ - 1, std::memory_order_release);
  buffer_.clear();
  buffered_commits_ = 0;
  relaxed_unflushed_.store(0, std::memory_order_release);
  return Status::OK();
}

Status LogManager::GroupFlushLocked(Lsn lsn) {
  while (true) {
    if (poison_ != PoisonKind::kNone) return PoisonedLocked();
    if (lsn <= flushed_lsn_.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    if (!flush_active_) break;  // become the leader
    // Follower: wait for the in-flight batch to finish, then learn our
    // fate from its outcome.
    const uint64_t seq = flush_seq_;
    while (flush_active_ && flush_seq_ == seq) flush_cv_.Wait();
    if (lsn <= flushed_lsn_.load(std::memory_order_relaxed)) {
      return Status::OK();
    }
    if (!flush_result_.ok() && lsn <= flush_target_) {
      // Our frame was inside the failed batch: report the leader's
      // original failing Status, never a fabricated one.
      return flush_result_;
    }
    // Appended after the snapshot (or the batch failed below us): loop —
    // we will either follow the next leader or lead ourselves.
  }
  if (buffer_.empty()) return Status::OK();
  flush_active_ = true;
  // Snapshot under the lock, then release it for the disk I/O: committers
  // arriving during the write+fsync append freely and form the next
  // batch. The buffer keeps its bytes until the flush succeeds, so
  // ReadRecord (rollback chains) stays serviceable throughout.
  const Lsn target = next_lsn_.load(std::memory_order_relaxed) - 1;
  const std::string batch = buffer_;
  const uint64_t file_off = buffer_start_ - base_lsn_ - 1 + kLogHeaderSize;
  const uint64_t batch_commits = buffered_commits_;
  const uint64_t batch_relaxed =
      relaxed_unflushed_.load(std::memory_order_relaxed);
  RandomAccessFile* file = file_.get();
  mu_.Unlock();
  Status s;
  {
    ScopedTimer timer(metric_sync_ns_);
    metric_syncs_->Increment();
    s = file->Write(file_off, batch.data(), batch.size());
    if (s.ok()) s = file->Sync(/*data_only=*/true);
  }
  mu_.Lock();
  flush_active_ = false;
  ++flush_seq_;
  flush_target_ = target;
  flush_result_ = s;
  if (s.ok()) {
    buffer_.erase(0, batch.size());
    buffer_start_ += batch.size();
    flushed_lsn_.store(target, std::memory_order_release);
    buffered_commits_ -= batch_commits;
    relaxed_unflushed_.fetch_sub(batch_relaxed, std::memory_order_release);
    if (batch_commits > 0) {
      metric_group_commits_->Increment();
      metric_group_size_->Record(static_cast<uint64_t>(batch_commits));
    }
  }
  // On failure nothing moved: the buffer, counters, and flushed_lsn_ are
  // exactly as before the attempt, so the log is still cleanly usable the
  // moment the fault clears (and Resume can flush the same bytes).
  flush_cv_.NotifyAll();
  return s;
}

Status LogManager::FlushAll() {
  MutexLock lock(&mu_);
  if (!file_) return Status::OK();
  return FlushToLocked(next_lsn_.load(std::memory_order_relaxed) - 1);
}

// Recovery replay owns the log; mu_ pins the segment chain for the
// whole scan by design.
// deeplint: allow(blocking-under-lock, recovery replay pins the chain)
Status LogManager::ReadAll(std::vector<LogRecord>* out) {
  DMX_RETURN_IF_ERROR(FlushAll());
  MutexLock lock(&mu_);
  // Sealed segments first (oldest to newest), then the live file. The
  // chain was verified contiguous at Open, so this replays an unbroken
  // LSN range ending at the live base. Replaying pre-checkpoint segments
  // that merely await archiving is harmless: redo is page-LSN gated and
  // every transaction they contain has ended. Unlike the live file, a
  // sealed segment admits no torn or stale tail — it was complete and
  // synced before the live log moved on — so any mismatch is corruption.
  for (const SegmentInfo& seg : segments_) {
    std::unique_ptr<RandomAccessFile> f;
    DMX_RETURN_IF_ERROR(
        env_->NewRandomAccessFile(seg.path, /*create=*/false, &f));
    std::string data(static_cast<size_t>(seg.end_lsn - seg.base_lsn), '\0');
    size_t seg_got = 0;
    Status s = f->Read(kSegHeaderSize, data.size(), data.data(), &seg_got);
    // Read-only segment handle; the read status is the outcome.
    (void)f->Close();
    DMX_RETURN_IF_ERROR(s);
    if (seg_got != data.size()) {
      return Status::Corruption("short read of wal segment '" + seg.path +
                                "'");
    }
    size_t pos = 0;
    while (pos < data.size()) {
      if (pos + kFrameHeaderSize > data.size()) {
        return Status::Corruption("truncated frame in wal segment '" +
                                  seg.path + "'");
      }
      const uint32_t len = DecodeFixed32(data.data() + pos);
      if (pos + kFrameHeaderSize + len > data.size()) {
        return Status::Corruption("truncated frame in wal segment '" +
                                  seg.path + "'");
      }
      const uint32_t crc = DecodeFixed32(data.data() + pos + 4);
      const char* body = data.data() + pos + kFrameHeaderSize;
      if (crc != FrameCrc(seg.gen, body, len)) {
        return Status::Corruption(
            "wal frame checksum mismatch at offset " +
            std::to_string(kSegHeaderSize + pos) + " in segment '" +
            seg.path + "'");
      }
      Slice in(body, len);
      LogRecord rec;
      if (!LogRecord::DecodeFrom(&in, &rec).ok()) {
        return Status::Corruption("undecodable wal record at offset " +
                                  std::to_string(kSegHeaderSize + pos) +
                                  " in segment '" + seg.path + "'");
      }
      rec.lsn = seg.base_lsn + static_cast<Lsn>(pos) + 1;
      out->push_back(std::move(rec));
      pos += kFrameHeaderSize + len;
    }
  }
  uint64_t size = 0;
  DMX_RETURN_IF_ERROR(file_->Size(&size));
  if (size <= kLogHeaderSize) return Status::OK();
  std::string data(static_cast<size_t>(size) - kLogHeaderSize, '\0');
  size_t got = 0;
  DMX_RETURN_IF_ERROR(file_->Read(kLogHeaderSize, data.size(), data.data(),
                                  &got));
  if (got != data.size()) return Status::IOError("short log read");
  size_t pos = 0;
  while (pos + kFrameHeaderSize <= data.size()) {
    const uint32_t len = DecodeFixed32(data.data() + pos);
    if (len == 0) break;  // zero fill: torn tail
    if (pos + kFrameHeaderSize + len > data.size()) break;  // torn tail
    const uint32_t crc = DecodeFixed32(data.data() + pos + 4);
    const char* body = data.data() + pos + kFrameHeaderSize;
    if (crc != FrameCrc(gen_, body, len)) {
      bool stale = false;
      for (uint32_t back = 1; back <= 8 && back < gen_; ++back) {
        if (crc == FrameCrc(gen_ - back, body, len)) {
          stale = true;
          break;
        }
      }
      if (stale) break;  // leftovers from a crash-interrupted truncation
      if (pos + kFrameHeaderSize + len == data.size()) break;  // torn tail
      return Status::Corruption(
          "wal frame checksum mismatch at log offset " +
          std::to_string(kLogHeaderSize + pos) + " in '" + path_ + "'");
    }
    Slice in(body, len);
    LogRecord rec;
    if (!LogRecord::DecodeFrom(&in, &rec).ok()) {
      // The bytes are intact (crc passed) yet undecodable: a writer bug or
      // format mismatch, not a torn tail.
      return Status::Corruption(
          "undecodable wal record at log offset " +
          std::to_string(kLogHeaderSize + pos) + " in '" + path_ + "'");
    }
    rec.lsn = base_lsn_ + static_cast<Lsn>(pos) + 1;
    out->push_back(std::move(rec));
    pos += kFrameHeaderSize + len;
  }
  if (pos < data.size()) {
    // Self-heal: cut the torn or stale tail off so later appends never
    // interleave with its bytes. Propagate failure — continuing with the
    // tail in place risks replaying garbage after the next crash.
    DMX_RETURN_IF_ERROR(file_->Truncate(kLogHeaderSize + pos));
    DMX_RETURN_IF_ERROR(file_->Sync(/*data_only=*/true));
    const Lsn next = base_lsn_ + static_cast<Lsn>(pos) + 1;
    next_lsn_.store(next, std::memory_order_release);
    flushed_lsn_.store(next - 1, std::memory_order_release);
    buffer_start_ = next;
  }
  return Status::OK();
}

// Undo-path point read: mu_ pins the chain so rotation cannot unlink
// the frame mid-read.
// deeplint: allow(blocking-under-lock, point read pins chain vs rotation)
Status LogManager::ReadRecord(Lsn lsn, LogRecord* out) {
  MutexLock lock(&mu_);
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  if (lsn == kInvalidLsn ||
      lsn >= next_lsn_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("bad lsn " + std::to_string(lsn));
  }
  if (lsn <= base_lsn_) {
    // Rotated past: a rollback chain reaching across a rotation reads its
    // record from the sealed segment that owns the LSN.
    for (const SegmentInfo& seg : segments_) {
      if (lsn <= seg.base_lsn || lsn > seg.end_lsn) continue;
      std::unique_ptr<RandomAccessFile> f;
      DMX_RETURN_IF_ERROR(
          env_->NewRandomAccessFile(seg.path, /*create=*/false, &f));
      const uint64_t off = kSegHeaderSize + (lsn - seg.base_lsn - 1);
      char hdr[kFrameHeaderSize];
      size_t n = 0;
      Status s = f->Read(off, kFrameHeaderSize, hdr, &n);
      if (s.ok() && n != kFrameHeaderSize) {
        s = Status::IOError("segment frame header read");
      }
      std::string body;
      uint32_t len = 0, crc = 0;
      if (s.ok()) {
        len = DecodeFixed32(hdr);
        crc = DecodeFixed32(hdr + 4);
        body.resize(len);
        s = f->Read(off + kFrameHeaderSize, len, body.data(), &n);
        if (s.ok() && n != len) s = Status::IOError("segment frame body read");
      }
      // Read-only segment handle; the frame status is the outcome.
      (void)f->Close();
      DMX_RETURN_IF_ERROR(s);
      if (crc != FrameCrc(seg.gen, body.data(), len)) {
        return Status::Corruption("wal frame checksum mismatch at lsn " +
                                  std::to_string(lsn) + " in segment '" +
                                  seg.path + "'");
      }
      Slice in(body);
      DMX_RETURN_IF_ERROR(LogRecord::DecodeFrom(&in, out));
      out->lsn = lsn;
      return Status::OK();
    }
    return Status::InvalidArgument("bad lsn " + std::to_string(lsn));
  }
  // Serve from the in-memory buffer if not yet flushed.
  if (lsn >= buffer_start_) {
    size_t off = static_cast<size_t>(lsn - buffer_start_);
    if (off + kFrameHeaderSize > buffer_.size()) {
      return Status::Corruption("lsn in buffer");
    }
    uint32_t len = DecodeFixed32(buffer_.data() + off);
    if (off + kFrameHeaderSize + len > buffer_.size()) {
      return Status::Corruption("lsn body in buffer");
    }
    Slice body(buffer_.data() + off + kFrameHeaderSize, len);
    DMX_RETURN_IF_ERROR(LogRecord::DecodeFrom(&body, out));
    out->lsn = lsn;
    return Status::OK();
  }
  const uint64_t file_off = lsn - base_lsn_ - 1 + kLogHeaderSize;
  char hdr[kFrameHeaderSize];
  size_t n = 0;
  DMX_RETURN_IF_ERROR(file_->Read(file_off, kFrameHeaderSize, hdr, &n));
  if (n != kFrameHeaderSize) return Status::IOError("log frame header read");
  const uint32_t len = DecodeFixed32(hdr);
  const uint32_t crc = DecodeFixed32(hdr + 4);
  std::string body(len, '\0');
  DMX_RETURN_IF_ERROR(
      file_->Read(file_off + kFrameHeaderSize, len, body.data(), &n));
  if (n != len) return Status::IOError("log frame body read");
  if (crc != FrameCrc(gen_, body.data(), len)) {
    return Status::Corruption("wal frame checksum mismatch at lsn " +
                              std::to_string(lsn));
  }
  Slice in(body);
  DMX_RETURN_IF_ERROR(LogRecord::DecodeFrom(&in, out));
  out->lsn = lsn;
  return Status::OK();
}

Status LogManager::ReclaimBlockedLocked() const {
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  if (flush_active_) {
    // A leader is mid-fsync with the file offsets we are about to change.
    return Status::Busy("group flush in progress; retry the truncation");
  }
  if (pins_ > 0) {
    return Status::Busy("wal pinned (online backup in progress)");
  }
  if (!buffer_.empty()) {
    return Status::Busy("flush the log before truncating");
  }
  return Status::OK();
}

Status LogManager::Truncate() {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(ReclaimBlockedLocked());
  return TruncateLocked();
}

// The header-first advance and shrink must not interleave with appends.
// deeplint: allow(blocking-under-lock, truncation excludes appenders)
Status LogManager::TruncateLocked() {
  const Lsn old_base = base_lsn_;
  const uint32_t old_gen = gen_;
  base_lsn_ = next_lsn_.load(std::memory_order_relaxed) - 1;
  gen_ += 1;
  // Header first: once the new header (advanced base, bumped generation) is
  // durable, any frames still in the file belong to the old generation and
  // replay discards them, so a crash before the shrink below is harmless.
  Status s = WriteHeaderLocked();
  if (s.ok()) s = file_->Sync(/*data_only=*/false);
  if (!s.ok()) {
    base_lsn_ = old_base;
    gen_ = old_gen;
    Status restore = WriteHeaderLocked();
    if (restore.ok()) restore = file_->Sync(/*data_only=*/false);
    // If we cannot tell which header is on disk, refuse all further work.
    if (!restore.ok()) {
      poison_ = PoisonKind::kHeaderUnknown;
      poison_cause_ = restore;
    }
    return s;
  }
  s = file_->Truncate(kLogHeaderSize);
  if (s.ok()) s = file_->Sync(/*data_only=*/true);
  if (!s.ok()) {
    // The new header is durable but the old frames may linger; in-memory
    // offsets no longer match the file reliably. Refuse further work.
    poison_ = PoisonKind::kStaleTail;
    poison_cause_ = s;
    return s;
  }
  buffer_start_ = next_lsn_.load(std::memory_order_relaxed);
  flushed_lsn_.store(buffer_start_ - 1, std::memory_order_release);
  return Status::OK();
}

std::string LogManager::SegmentPathLocked(uint32_t seqno) const {
  const size_t slash = path_.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "" : path_.substr(0, slash + 1);
  const std::string basename =
      slash == std::string::npos ? path_ : path_.substr(slash + 1);
  return dir + SegmentFileName(basename, seqno);
}

void LogManager::SetRetainSegments(bool retain) {
  MutexLock lock(&mu_);
  retain_segments_ = retain;
}

Status LogManager::Rotate() {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(ReclaimBlockedLocked());
  return RotateLocked();
}

// Sealing the flushed prefix must not interleave with appends.
// deeplint: allow(blocking-under-lock, rotation excludes appenders)
Status LogManager::RotateLocked() {
  const Lsn flushed = flushed_lsn_.load(std::memory_order_relaxed);
  if (flushed <= base_lsn_) return Status::OK();  // empty live log: no-op
  // Seal first: the segment must be durable (file + directory entry)
  // before the live header advances past its frames, so a crash at any
  // point leaves at least one complete copy of every flushed record.
  const uint64_t body_size = flushed - base_lsn_;
  std::string body(static_cast<size_t>(body_size), '\0');
  size_t got = 0;
  DMX_RETURN_IF_ERROR(
      file_->Read(kLogHeaderSize, body.size(), body.data(), &got));
  if (got != body.size()) {
    return Status::IOError("short live-wal read during rotation");
  }
  SegmentInfo info;
  info.seqno = next_seg_seqno_;
  info.base_lsn = base_lsn_;
  info.end_lsn = flushed;
  info.gen = gen_;
  info.path = SegmentPathLocked(info.seqno);
  std::string hdr;
  EncodeSegmentHeader(
      SegmentHeader{info.seqno, info.base_lsn, info.end_lsn, info.gen}, &hdr);
  std::unique_ptr<RandomAccessFile> seg;
  Status s = env_->NewRandomAccessFile(info.path, /*create=*/true, &seg);
  if (s.ok()) s = seg->Truncate(0);
  if (s.ok()) s = seg->Write(0, hdr.data(), hdr.size());
  if (s.ok()) s = seg->Write(kSegHeaderSize, body.data(), body.size());
  if (s.ok()) s = seg->Sync(/*data_only=*/false);
  if (s.ok()) s = seg->Close();
  if (s.ok()) s = env_->SyncDir(DirnameOf(path_));
  if (!s.ok()) {
    // The live log is untouched and fully usable; discard the partial
    // segment so a later rotation starts clean.
    if (seg) (void)seg->Close();
    // Best-effort: a leftover partial segment is garbage either way.
    (void)env_->DeleteFile(info.path);
    return s;
  }
  segments_.push_back(info);
  ++next_seg_seqno_;
  Status ts = TruncateLocked();
  if (!ts.ok() && base_lsn_ < info.end_lsn) {
    // The live header never advanced (kHeaderUnknown window or an early
    // failure with the old header restored): the live file still owns
    // these frames, so the sealed copy is a duplicate — exactly what
    // DiscoverSegmentsLocked would delete after a crash here. In the
    // kStaleTail window the header did advance and the segment is the
    // only complete copy; it stays registered.
    segments_.pop_back();
    --next_seg_seqno_;
    // Best-effort: the duplicate copy is re-deleted at next discovery.
    (void)env_->DeleteFile(info.path);
    return ts;
  }
  DMX_RETURN_IF_ERROR(ts);
  metric_segments_sealed_->Increment();
  UpdateLagGaugeLocked();
  return Status::OK();
}

// Truncation must be atomic with respect to appends; the rewrite is
// small and checkpoint-rate.
// deeplint: allow(blocking-under-lock, truncate is atomic vs appends)
Status LogManager::CheckpointTruncate() {
  MutexLock lock(&mu_);
  DMX_RETURN_IF_ERROR(ReclaimBlockedLocked());
  if (!retain_segments_) {
    DMX_RETURN_IF_ERROR(TruncateLocked());
    // No archiver: sealed segments (left over from a config change) are
    // dead history like everything else the checkpoint discards.
    for (const SegmentInfo& seg : segments_) (void)env_->DeleteFile(seg.path);
    segments_.clear();
    UpdateLagGaugeLocked();
    return Status::OK();
  }
  DMX_RETURN_IF_ERROR(RotateLocked());
  // Archive-before-truncate: only segments with a verified archive copy
  // are reclaimable. An unreachable archive stalls reclaim (WAL grows),
  // never costs history.
  while (!segments_.empty() && segments_.front().archived) {
    Status s = env_->DeleteFile(segments_.front().path);
    if (!s.ok() && !s.IsNotFound()) return s;  // retry at next checkpoint
    segments_.erase(segments_.begin());
  }
  UpdateLagGaugeLocked();
  return Status::OK();
}

std::vector<LogManager::SegmentInfo> LogManager::segments() const {
  MutexLock lock(&mu_);
  return segments_;
}

void LogManager::MarkArchived(uint32_t seqno) {
  MutexLock lock(&mu_);
  for (SegmentInfo& seg : segments_) {
    if (seg.seqno == seqno) seg.archived = true;
  }
  UpdateLagGaugeLocked();
}

uint64_t LogManager::sealed_unarchived() const {
  MutexLock lock(&mu_);
  uint64_t n = 0;
  for (const SegmentInfo& seg : segments_) {
    if (!seg.archived) ++n;
  }
  return n;
}

void LogManager::PinWal() {
  MutexLock lock(&mu_);
  ++pins_;
}

void LogManager::UnpinWal() {
  MutexLock lock(&mu_);
  if (pins_ > 0) --pins_;
}

Lsn LogManager::base_lsn() const {
  MutexLock lock(&mu_);
  return base_lsn_;
}

// Backup copies a frozen durable prefix; mu_ keeps rotation and
// truncation out for the copy.
// deeplint: allow(blocking-under-lock, backup copies a frozen prefix)
Status LogManager::SnapshotLiveTo(const std::string& dest_path) {
  MutexLock lock(&mu_);
  if (poison_ != PoisonKind::kNone) return PoisonedLocked();
  if (!file_) return Status::IOError("log not open");
  // Wait out an in-flight group flush so the durable prefix is stable
  // (the leader writes the file with mu_ released).
  while (flush_active_) flush_cv_.Wait();
  const Lsn flushed = flushed_lsn_.load(std::memory_order_relaxed);
  const uint64_t n = kLogHeaderSize + (flushed - base_lsn_);
  std::string bytes(static_cast<size_t>(n), '\0');
  size_t got = 0;
  DMX_RETURN_IF_ERROR(file_->Read(0, bytes.size(), bytes.data(), &got));
  if (got != bytes.size()) {
    return Status::IOError("short live-wal read during backup");
  }
  std::unique_ptr<RandomAccessFile> dest;
  DMX_RETURN_IF_ERROR(
      env_->NewRandomAccessFile(dest_path, /*create=*/true, &dest));
  DMX_RETURN_IF_ERROR(dest->Truncate(0));
  DMX_RETURN_IF_ERROR(dest->Write(0, bytes.data(), bytes.size()));
  DMX_RETURN_IF_ERROR(dest->Sync(/*data_only=*/false));
  return dest->Close();
}

// Poison recovery: the log is quiesced by the poison gate, and repair
// I/O must be exclusive.
// deeplint: allow(blocking-under-lock, poison repair I/O is exclusive)
Status LogManager::Resume() {
  MutexLock lock(&mu_);
  if (!file_) return Status::IOError("log not open");
  switch (poison_) {
    case PoisonKind::kNone:
      break;
    case PoisonKind::kHeaderUnknown:
      // Neither the new nor the restored (current in-memory) header is
      // known to be on disk: rewrite ours and make it durable. Until this
      // succeeds the poison stays set and we keep returning the fault.
      DMX_RETURN_IF_ERROR(WriteHeaderLocked());
      DMX_RETURN_IF_ERROR(file_->Sync(/*data_only=*/false));
      break;
    case PoisonKind::kStaleTail:
      // The advanced header is durable; finish the interrupted shrink so
      // old-generation frames cannot linger past the next crash.
      DMX_RETURN_IF_ERROR(file_->Truncate(kLogHeaderSize));
      DMX_RETURN_IF_ERROR(file_->Sync(/*data_only=*/true));
      buffer_start_ = next_lsn_.load(std::memory_order_relaxed);
      flushed_lsn_.store(buffer_start_ - 1, std::memory_order_release);
      break;
  }
  poison_ = PoisonKind::kNone;
  poison_cause_ = Status::OK();
  // Probe the full append/force path before declaring the log healthy: a
  // pending buffer is the real thing to flush; otherwise rewrite + sync
  // the header as a same-shape write.
  if (!buffer_.empty()) {
    return FlushToLocked(next_lsn_.load(std::memory_order_relaxed) - 1);
  }
  DMX_RETURN_IF_ERROR(WriteHeaderLocked());
  return file_->Sync(/*data_only=*/false);
}

}  // namespace dmx
