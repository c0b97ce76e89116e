#include "pcap/cursor.h"

#include <cstring>

#include "pcap/pcap_file.h"
#include "runtime/parse_error.h"

#if defined(__unix__) || defined(__APPLE__)
#define CCSIG_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace ccsig::pcap {
namespace {

constexpr std::size_t kChunkBytes = 256 * 1024;

}  // namespace

void PcapCursor::fail(std::string reason) const {
  runtime::throw_parse_error(path_, offset_, "byte", std::move(reason));
}

bool PcapCursor::try_mmap() {
#ifdef CCSIG_HAVE_MMAP
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return false;
  }
  if (st.st_size == 0) {
    // An empty regular file needs no mapping: an empty window reproduces
    // the streamed path's "truncated file header" error exactly.
    ::close(fd);
    static const std::uint8_t kEmptyWindow = 0;
    mmap_base_ = &kEmptyWindow;
    mmap_len_ = 0;
    end_ = 0;
    eof_ = true;
    return true;
  }
  void* base = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                      PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) return false;
#ifdef POSIX_MADV_SEQUENTIAL
  ::posix_madvise(base, static_cast<std::size_t>(st.st_size),
                  POSIX_MADV_SEQUENTIAL);
#endif
  mmap_base_ = static_cast<const std::uint8_t*>(base);
  mmap_len_ = static_cast<std::size_t>(st.st_size);
  end_ = mmap_len_;  // the window is the whole file
  eof_ = true;
  return true;
#else
  return false;
#endif
}

PcapCursor::~PcapCursor() {
#ifdef CCSIG_HAVE_MMAP
  if (mmap_base_ && mmap_len_ > 0) {
    ::munmap(const_cast<std::uint8_t*>(mmap_base_), mmap_len_);
  }
#endif
}

std::size_t PcapCursor::ensure(std::size_t need) {
  if (end_ - pos_ >= need) return end_ - pos_;
  if (mmap_base_) return end_ - pos_;  // the whole file is the window
  // Compact: move the unconsumed tail to the front of the buffer.
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  // A record larger than the buffer (legal: snaplen-sized bodies) forces a
  // one-time growth; steady state never reallocates.
  if (need > buf_.size()) buf_.resize(need);
  while (!eof_ && end_ - pos_ < need) {
    in_.read(reinterpret_cast<char*>(buf_.data() + end_),
             static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    if (!in_) eof_ = true;
  }
  return end_ - pos_;
}

PcapCursor::PcapCursor(const std::string& path, CursorMode mode, bool tail)
    : path_(path), tail_(tail) {
  // A fixed-size mapping cannot see bytes appended after construction, so
  // tailing always takes the buffered backend.
  if (tail_) mode = CursorMode::kStream;
  if (mode != CursorMode::kStream) {
    if (!try_mmap() && mode == CursorMode::kMmap) {
      fail("cannot mmap pcap for reading");
    }
  }
  if (!mmap_base_) {
    in_.open(path, std::ios::binary);
    if (!in_) fail("cannot open pcap for reading");
    buf_.resize(kChunkBytes);
  }
  if (!parse_file_header()) incomplete_tail_ = true;
}

bool PcapCursor::parse_file_header() {
  FileHeader hdr;
  const std::size_t got = ensure(sizeof(hdr));
  if (got < sizeof(hdr)) {
    if (tail_) return false;  // writer has not finished the header yet
    fail("truncated file header (need " + std::to_string(sizeof(hdr)) +
         " bytes, got " + std::to_string(got) + ")");
  }
  std::memcpy(&hdr, window() + pos_, sizeof(hdr));
  if (hdr.magic != kPcapMagic) {
    fail("not a (little-endian, µs) pcap file: bad magic");
  }
  pos_ += sizeof(hdr);
  snaplen_ = hdr.snaplen;
  linktype_ = hdr.linktype;
  offset_ = sizeof(hdr);
  header_ready_ = true;
  return true;
}

void PcapCursor::retry_reads() {
  if (!eof_) return;
  eof_ = false;
  in_.clear();
}

std::optional<RecordView> PcapCursor::next() {
  if (tail_) {
    incomplete_tail_ = false;
    retry_reads();
    if (!header_ready_ && !parse_file_header()) {
      incomplete_tail_ = true;
      return std::nullopt;
    }
  }
  RecordHeader rec;
  const std::size_t have = ensure(sizeof(rec));
  if (have < sizeof(rec)) {
    if (tail_) {
      incomplete_tail_ = have != 0;  // mid-header vs. clean record boundary
      return std::nullopt;
    }
    if (have == 0) return std::nullopt;  // clean end of file
    fail("truncated record header (need " + std::to_string(sizeof(rec)) +
         " bytes, got " + std::to_string(have) + ")");
  }
  std::memcpy(&rec, window() + pos_, sizeof(rec));
  // A snaplen-exceeding capture length cannot have been written by any
  // sane writer; treat it as corruption rather than allocating blindly —
  // tail mode included, since no amount of waiting repairs a bad header.
  if (rec.incl_len > snaplen_ + 65536u) {
    fail("corrupt record header: incl_len " + std::to_string(rec.incl_len) +
         " exceeds snaplen " + std::to_string(snaplen_));
  }
  // Peek-then-consume: nothing advances until the header AND body are both
  // windowed, so a tail-mode retry resumes at the same record boundary.
  const std::size_t need =
      sizeof(rec) + static_cast<std::size_t>(rec.incl_len);
  const std::size_t avail = ensure(need);
  if (avail < need) {
    if (tail_) {
      incomplete_tail_ = true;
      return std::nullopt;
    }
    // A truncated body is reported just past its record header (the
    // offset tests/goldens/pcap_errors.txt pins), so consume the header
    // first.
    pos_ += sizeof(rec);
    offset_ += sizeof(rec);
    fail("truncated record body (need " + std::to_string(rec.incl_len) +
         " bytes, got " + std::to_string(avail - sizeof(rec)) + ")");
  }
  pos_ += sizeof(rec);
  offset_ += sizeof(rec);
  RecordView view;
  view.timestamp = static_cast<sim::Time>(rec.ts_sec) * sim::kSecond +
                   static_cast<sim::Time>(rec.ts_usec) * sim::kMicrosecond;
  view.orig_len = rec.orig_len;
  view.data =
      std::span<const std::uint8_t>(window() + pos_, rec.incl_len);
  pos_ += rec.incl_len;
  offset_ += rec.incl_len;
  return view;
}

}  // namespace ccsig::pcap
