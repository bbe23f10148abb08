#include "persist/wire.h"

#include <cstdio>
#include <memory>

namespace recnet {
namespace persist {

uint64_t Fnv1a(const uint8_t* data, size_t n, uint64_t h) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

Status ValidatePrefix(Reader& r, const std::string& path,
                      SnapshotHeader* header) {
  uint64_t magic = r.U64();
  uint32_t version = r.U32();
  uint32_t endian = r.U32();
  uint64_t payload_size = r.U64();
  uint64_t checksum = r.U64();
  if (!r.ok()) {
    return Status::DataLoss("truncated snapshot header: " + path);
  }
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a recnet snapshot: " + path);
  }
  if (endian != kEndianTag) {
    return Status::InvalidArgument(
        "snapshot written with different endianness: " + path);
  }
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (expected " + std::to_string(kSnapshotVersion) + "): " + path);
  }
  if (header != nullptr) {
    header->version = version;
    header->payload_size = payload_size;
    header->checksum = checksum;
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshotFile(const std::string& path,
                         const std::vector<const Writer*>& pieces,
                         size_t tear_after_bytes) {
  uint64_t payload_n = 0;
  uint64_t checksum = kFnv1aOffsetBasis;
  for (const Writer* piece : pieces) {
    payload_n += piece->bytes().size();
    checksum = Fnv1a(piece->bytes().data(), piece->bytes().size(), checksum);
  }
  Writer head;
  head.U64(kSnapshotMagic);
  head.U32(kSnapshotVersion);
  head.U32(kEndianTag);
  head.U64(payload_n);
  head.U64(checksum);

  // Everything lands in the temporary first; `path` is only ever touched by
  // the final rename, which the filesystem performs atomically. An injected
  // tear stops the write short and skips the rename — the torn file is the
  // .tmp, never the target.
  const std::string tmp = path + ".tmp";
  const size_t total = head.bytes().size() + payload_n;
  size_t budget = tear_after_bytes < total ? tear_after_bytes : total;
  const bool torn = budget != total;

  File f(std::fopen(tmp.c_str(), "wb"));
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + tmp);
  }
  auto put = [&](const Writer& w) {
    const size_t n = w.bytes().size() < budget ? w.bytes().size() : budget;
    budget -= n;
    return n == 0 || std::fwrite(w.bytes().data(), 1, n, f.get()) == n;
  };
  bool written = put(head);
  for (const Writer* piece : pieces) written = written && put(*piece);
  if (!written) {
    return Status::Internal("short write: " + tmp);
  }
  if (std::fflush(f.get()) != 0) {
    return Status::Internal("flush failed: " + tmp);
  }
  f.reset();  // Close before rename: a renamed-but-open file is not durable.
  if (torn) {
    return Status::Unavailable(
        "injected snapshot tear after " + std::to_string(tear_after_bytes) +
        " bytes: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

Status ReadSnapshotPayload(const std::string& path,
                           std::vector<uint8_t>* payload,
                           SnapshotHeader* header, bool verify_checksum) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  uint8_t head_buf[kSnapshotHeaderBytes];
  size_t got = std::fread(head_buf, 1, sizeof head_buf, f.get());
  Reader head_reader(head_buf, got);
  SnapshotHeader head;
  RECNET_RETURN_IF_ERROR(ValidatePrefix(head_reader, path, &head));
  payload->resize(head.payload_size);
  if (std::fread(payload->data(), 1, payload->size(), f.get()) !=
      payload->size()) {
    return Status::DataLoss("truncated snapshot payload: " + path);
  }
  // A well-formed file ends exactly at the payload; trailing bytes mean the
  // declared size is wrong (the checksum would likely pass on the prefix,
  // so check explicitly).
  uint8_t extra;
  if (std::fread(&extra, 1, 1, f.get()) == 1) {
    return Status::DataLoss("snapshot has trailing bytes: " + path);
  }
  if (verify_checksum &&
      Fnv1a(payload->data(), payload->size()) != head.checksum) {
    return Status::DataLoss("snapshot checksum mismatch: " + path);
  }
  if (header != nullptr) *header = head;
  return Status::OK();
}

Status ReadSnapshotHeader(const std::string& path, SnapshotHeader* header) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open snapshot: " + path);
  }
  uint8_t head_buf[kSnapshotHeaderBytes];
  size_t got = std::fread(head_buf, 1, sizeof head_buf, f.get());
  Reader head_reader(head_buf, got);
  return ValidatePrefix(head_reader, path, header);
}

}  // namespace persist
}  // namespace recnet
