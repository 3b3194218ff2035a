#include "core/report_crafter.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "rdma/multiwrite.hpp"
#include "rdma/roce.hpp"

namespace dart::core {

namespace {

// Absolute byte offsets of the variant fields inside a crafted frame. The
// layouts are fixed by the wire formats (net/headers, rdma/roce,
// rdma/multiwrite); frame-equality tests pin them against the serializers.
constexpr std::size_t kRoceOff =
    net::kEthernetHeaderLen + net::kIpv4HeaderLen + net::kUdpHeaderLen;
constexpr std::size_t kPsnOff = kRoceOff + 9;  // BTH bytes 9..11, 24-bit BE
constexpr std::size_t kRethVaddrOff = kRoceOff + rdma::kBthLen;
constexpr std::size_t kWritePayloadOff = kRethVaddrOff + rdma::kRethLen;
constexpr std::size_t kAtomicVaddrOff = kRoceOff + rdma::kBthLen;
constexpr std::size_t kAtomicSwapOff = kAtomicVaddrOff + 8 + 4;
constexpr std::size_t kAtomicCompareOff = kAtomicSwapOff + 8;
constexpr std::size_t kDtaPsnOff = kRoceOff + 8;  // 32-bit BE
constexpr std::size_t kDtaDataOff = kRoceOff + rdma::kDtaHeaderLen;

void put_be24(std::byte* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::byte>((v >> 16) & 0xFF);
  p[1] = static_cast<std::byte>((v >> 8) & 0xFF);
  p[2] = static_cast<std::byte>(v & 0xFF);
}

void put_be32(std::byte* p, std::uint32_t v) noexcept {
  const std::uint32_t be = host_to_net32(v);
  std::memcpy(p, &be, sizeof(be));
}

void put_be64(std::byte* p, std::uint64_t v) noexcept {
  const std::uint64_t be = host_to_net64(v);
  std::memcpy(p, &be, sizeof(be));
}

}  // namespace

std::vector<std::byte> ReportCrafter::craft_write(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    std::span<const std::byte> key, std::span<const std::byte> value,
    std::uint32_t n, std::uint32_t psn) const {
  assert(value.size() == config_.value_bytes);

  // Slot payload: checksum ‖ value — must match DartStore::write_raw.
  std::vector<std::byte> payload;
  payload.reserve(config_.slot_bytes());
  const std::uint32_t csum = hashes_.checksum_of(key, config_.checksum_bits);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    payload.push_back(static_cast<std::byte>((csum >> (8 * i)) & 0xFF));
  }
  payload.insert(payload.end(), value.begin(), value.end());

  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcRdmaWriteOnly;
  bth.dest_qp = dst.qpn;
  bth.psn = psn;

  rdma::Reth reth;
  reth.vaddr = slot_vaddr(dst, key, n);
  reth.rkey = dst.rkey;
  reth.dma_length = static_cast<std::uint32_t>(payload.size());

  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_write(w, bth, reth, payload);
  return wrap_frame(dst, src, roce);
}

std::vector<std::byte> ReportCrafter::craft_fetch_add(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    std::uint64_t vaddr, std::uint64_t addend, std::uint32_t psn) const {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcFetchAdd;
  bth.dest_qp = dst.qpn;
  bth.psn = psn;

  rdma::AtomicEth aeth;
  aeth.vaddr = vaddr;
  aeth.rkey = dst.rkey;
  aeth.swap_add = addend;

  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_atomic(w, bth, aeth);
  return wrap_frame(dst, src, roce);
}

std::vector<std::byte> ReportCrafter::craft_compare_swap(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    std::uint64_t vaddr, std::uint64_t compare, std::uint64_t swap,
    std::uint32_t psn) const {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcCompareSwap;
  bth.dest_qp = dst.qpn;
  bth.psn = psn;

  rdma::AtomicEth aeth;
  aeth.vaddr = vaddr;
  aeth.rkey = dst.rkey;
  aeth.swap_add = swap;
  aeth.compare = compare;

  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_atomic(w, bth, aeth);
  return wrap_frame(dst, src, roce);
}

std::vector<std::byte> ReportCrafter::craft_multiwrite(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    std::span<const std::byte> key, std::span<const std::byte> value,
    std::uint32_t psn) const {
  assert(value.size() == config_.value_bytes);

  std::vector<std::byte> payload;
  payload.reserve(config_.slot_bytes());
  const std::uint32_t csum = hashes_.checksum_of(key, config_.checksum_bits);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    payload.push_back(static_cast<std::byte>((csum >> (8 * i)) & 0xFF));
  }
  payload.insert(payload.end(), value.begin(), value.end());

  // All N coded addresses in one batched hash pass.
  std::vector<std::uint64_t> vaddrs(config_.n_addresses);
  hashes_.addresses_of(key, dst.n_slots, vaddrs);
  for (auto& a : vaddrs) a = dst.slot_vaddr(a);
  const auto dta = rdma::encode_multiwrite(dst.rkey, psn, vaddrs, payload);

  net::UdpFrameSpec spec;
  spec.src_mac = src.mac;
  spec.dst_mac = dst.mac;
  spec.src_ip = src.ip;
  spec.dst_ip = dst.ip;
  spec.src_port = src.udp_src_port;
  spec.dst_port = rdma::kDtaUdpPort;
  return net::build_udp_frame(spec, dta);
}

std::vector<std::byte> ReportCrafter::craft_raw_write(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    std::uint64_t vaddr, std::span<const std::byte> payload,
    std::uint32_t psn) const {
  rdma::Bth bth;
  bth.opcode = rdma::Opcode::kRcRdmaWriteOnly;
  bth.dest_qp = dst.qpn;
  bth.psn = psn;

  rdma::Reth reth;
  reth.vaddr = vaddr;
  reth.rkey = dst.rkey;
  reth.dma_length = static_cast<std::uint32_t>(payload.size());

  std::vector<std::byte> roce;
  BufWriter w(roce);
  rdma::serialize_write(w, bth, reth, payload);
  return wrap_frame(dst, src, roce);
}

std::vector<std::byte> ReportCrafter::craft_append(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    const AppendRingConfig& ring, std::uint64_t seq,
    std::span<const std::byte> value, std::uint32_t psn) const {
  assert(seq != 0);
  assert(value.size() == ring.value_bytes);
  assert(dst.slot_bytes == ring.entry_bytes());
  std::vector<std::byte> payload;
  payload.reserve(ring.entry_bytes());
  AppendRing::encode_entry(seq, value, payload);
  return craft_raw_write(dst, src, dst.slot_vaddr(ring.slot_of(seq)), payload,
                         psn);
}

std::vector<std::byte> ReportCrafter::craft_cell_increment(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    const CellGeometry& cells, std::span<const std::byte> key,
    std::uint32_t row, std::uint64_t delta, std::uint32_t psn) const {
  assert(dst.slot_bytes == 8);
  assert(row < cells.rows());
  return craft_fetch_add(dst, src, dst.slot_vaddr(cells.cell_of(key, row)),
                         delta, psn);
}

std::vector<std::byte> ReportCrafter::craft_postcard(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    const PostcardConfig& postcards, std::span<const std::byte> flow_key,
    std::uint32_t hop, std::span<const std::byte> value,
    std::uint32_t psn) const {
  assert(hop < postcards.max_hops);
  assert(value.size() == postcards.value_bytes);
  assert(dst.slot_bytes == postcards.slot_bytes());
  std::vector<std::byte> payload;
  payload.reserve(postcards.slot_bytes());
  PostcardStore::encode_hop_payload(postcards, flow_key, value, payload);
  const std::uint64_t index =
      postcards.slot_index(postcards.group_of(flow_key), hop);
  return craft_raw_write(dst, src, dst.slot_vaddr(index), payload, psn);
}

FrameTemplate ReportCrafter::make_write_template(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src) const {
  FrameTemplate t;
  const std::array<std::byte, 1> dummy_key{};
  const std::vector<std::byte> zero_value(config_.value_bytes);
  t.prototype_ = craft_write(dst, src, dummy_key, zero_value, 0, 0);
  t.crc_prefix_ = rdma::icrc_prefix_state(t.prototype_);
  t.dst_ = dst;
  t.kind_ = FrameTemplate::Kind::kWrite;
  return t;
}

FrameTemplate ReportCrafter::make_atomic_template(const RemoteStoreInfo& dst,
                                                  const ReporterEndpoint& src,
                                                  rdma::Opcode op) const {
  FrameTemplate t;
  if (op == rdma::Opcode::kRcFetchAdd) {
    t.prototype_ = craft_fetch_add(dst, src, 0, 0, 0);
    t.kind_ = FrameTemplate::Kind::kFetchAdd;
  } else if (op == rdma::Opcode::kRcCompareSwap) {
    t.prototype_ = craft_compare_swap(dst, src, 0, 0, 0, 0);
    t.kind_ = FrameTemplate::Kind::kCompareSwap;
  } else {
    return t;
  }
  t.crc_prefix_ = rdma::icrc_prefix_state(t.prototype_);
  t.dst_ = dst;
  return t;
}

FrameTemplate ReportCrafter::make_multiwrite_template(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src) const {
  FrameTemplate t;
  const std::array<std::byte, 1> dummy_key{};
  const std::vector<std::byte> zero_value(config_.value_bytes);
  t.prototype_ = craft_multiwrite(dst, src, dummy_key, zero_value, 0);
  // The DTA trailer CRC covers the whole DTA payload, unmasked; the cacheable
  // prefix is magic/version/count/rkey — the 8 bytes before the PSN, which by
  // construction ends at the same absolute offset as the RoCE variant region.
  t.crc_prefix_.update(
      std::span<const std::byte>(t.prototype_.data() + kRoceOff, 8));
  t.dst_ = dst;
  t.kind_ = FrameTemplate::Kind::kMultiwrite;
  return t;
}

FrameTemplate ReportCrafter::make_append_template(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    const AppendRingConfig& ring) const {
  FrameTemplate t;
  const std::vector<std::byte> zero_value(ring.value_bytes);
  t.prototype_ = craft_append(dst, src, ring, /*seq=*/1, zero_value, 0);
  t.crc_prefix_ = rdma::icrc_prefix_state(t.prototype_);
  t.dst_ = dst;
  t.kind_ = FrameTemplate::Kind::kAppend;
  return t;
}

FrameTemplate ReportCrafter::make_postcard_template(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    const PostcardConfig& postcards) const {
  FrameTemplate t;
  const std::array<std::byte, 1> dummy_key{};
  const std::vector<std::byte> zero_value(postcards.value_bytes);
  t.prototype_ = craft_postcard(dst, src, postcards, dummy_key, 0, zero_value, 0);
  t.crc_prefix_ = rdma::icrc_prefix_state(t.prototype_);
  t.dst_ = dst;
  t.kind_ = FrameTemplate::Kind::kPostcard;
  return t;
}

std::size_t ReportCrafter::patch_write_frame(const FrameTemplate& tpl,
                                             std::span<const std::byte> key,
                                             std::span<const std::byte> value,
                                             std::uint64_t vaddr,
                                             std::uint32_t psn,
                                             std::span<std::byte> out) const {
  assert(value.size() == config_.value_bytes);
  const std::size_t len = tpl.prototype_.size();
  std::memcpy(out.data(), tpl.prototype_.data(), len);
  put_be24(out.data() + kPsnOff, psn & 0xFF'FFFFu);
  put_be64(out.data() + kRethVaddrOff, vaddr);
  std::byte* p = out.data() + kWritePayloadOff;
  const std::uint32_t csum = hashes_.checksum_of(key, config_.checksum_bits);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    *p++ = static_cast<std::byte>((csum >> (8 * i)) & 0xFF);
  }
  std::memcpy(p, value.data(), value.size());
  const std::size_t icrc_off = len - rdma::kIcrcLen;
  Crc32 crc = tpl.crc_prefix_;
  crc.update(std::span<const std::byte>(
      out.data() + rdma::kIcrcVariantOffset,
      icrc_off - rdma::kIcrcVariantOffset));
  const std::uint32_t icrc = crc.value();
  std::memcpy(out.data() + icrc_off, &icrc, rdma::kIcrcLen);
  return len;
}

std::size_t ReportCrafter::craft_write_into(const FrameTemplate& tpl,
                                            std::span<const std::byte> key,
                                            std::span<const std::byte> value,
                                            std::uint32_t n, std::uint32_t psn,
                                            std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kWrite ||
      out.size() < tpl.prototype_.size()) {
    return 0;
  }
  return patch_write_frame(tpl, key, value, slot_vaddr(tpl.dst_, key, n), psn,
                           out);
}

std::size_t ReportCrafter::craft_write_into_at(const FrameTemplate& tpl,
                                               std::span<const std::byte> key,
                                               std::span<const std::byte> value,
                                               std::uint64_t slot_addr,
                                               std::uint32_t psn,
                                               std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kWrite ||
      out.size() < tpl.prototype_.size()) {
    return 0;
  }
  return patch_write_frame(tpl, key, value, tpl.dst_.slot_vaddr(slot_addr),
                           psn, out);
}

std::size_t ReportCrafter::craft_write_into_n(const FrameTemplate& tpl,
                                              std::span<const WriteOp> ops,
                                              std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kWrite) return 0;
  const std::size_t len = tpl.prototype_.size();
  if (out.size() < len * ops.size()) return 0;

  constexpr std::size_t kLanes = 64;
  std::array<std::uint64_t, kLanes> key_lanes;
  std::array<std::uint32_t, kLanes> ns;
  std::array<std::uint64_t, kLanes> addrs;
  std::size_t done = 0;
  while (done < ops.size()) {
    const std::size_t m = std::min(kLanes, ops.size() - done);
    // Batch-hash the chunk's slot addresses; 8-byte keys (the telemetry key
    // shape) take the interleaved AVX2 kernel, anything else hashes per op.
    bool keys8 = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (ops[done + i].key.size() != 8) {
        keys8 = false;
        break;
      }
    }
    if (keys8) {
      for (std::size_t i = 0; i < m; ++i) {
        std::memcpy(&key_lanes[i], ops[done + i].key.data(), 8);
        ns[i] = ops[done + i].n;
      }
      hashes_.address_of_batch(
          reinterpret_cast<const std::byte*>(key_lanes.data()), 8, 8,
          std::span<const std::uint32_t>(ns.data(), m), tpl.dst_.n_slots,
          addrs.data());
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        addrs[i] = hashes_.address_of(ops[done + i].key, ops[done + i].n,
                                      tpl.dst_.n_slots);
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      const WriteOp& op = ops[done + i];
      patch_write_frame(tpl, op.key, op.value, tpl.dst_.slot_vaddr(addrs[i]),
                        op.psn, out.subspan((done + i) * len, len));
    }
    done += m;
  }
  return ops.size();
}

std::size_t ReportCrafter::craft_fetch_add_into(const FrameTemplate& tpl,
                                                std::uint64_t vaddr,
                                                std::uint64_t addend,
                                                std::uint32_t psn,
                                                std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kFetchAdd ||
      out.size() < tpl.prototype_.size()) {
    return 0;
  }
  const std::size_t len = tpl.prototype_.size();
  std::memcpy(out.data(), tpl.prototype_.data(), len);
  put_be24(out.data() + kPsnOff, psn & 0xFF'FFFFu);
  put_be64(out.data() + kAtomicVaddrOff, vaddr);
  put_be64(out.data() + kAtomicSwapOff, addend);
  const std::size_t icrc_off = len - rdma::kIcrcLen;
  Crc32 crc = tpl.crc_prefix_;
  crc.update(std::span<const std::byte>(
      out.data() + rdma::kIcrcVariantOffset,
      icrc_off - rdma::kIcrcVariantOffset));
  const std::uint32_t icrc = crc.value();
  std::memcpy(out.data() + icrc_off, &icrc, rdma::kIcrcLen);
  return len;
}

std::size_t ReportCrafter::craft_compare_swap_into(
    const FrameTemplate& tpl, std::uint64_t vaddr, std::uint64_t compare,
    std::uint64_t swap, std::uint32_t psn, std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kCompareSwap ||
      out.size() < tpl.prototype_.size()) {
    return 0;
  }
  const std::size_t len = tpl.prototype_.size();
  std::memcpy(out.data(), tpl.prototype_.data(), len);
  put_be24(out.data() + kPsnOff, psn & 0xFF'FFFFu);
  put_be64(out.data() + kAtomicVaddrOff, vaddr);
  put_be64(out.data() + kAtomicSwapOff, swap);
  put_be64(out.data() + kAtomicCompareOff, compare);
  const std::size_t icrc_off = len - rdma::kIcrcLen;
  Crc32 crc = tpl.crc_prefix_;
  crc.update(std::span<const std::byte>(
      out.data() + rdma::kIcrcVariantOffset,
      icrc_off - rdma::kIcrcVariantOffset));
  const std::uint32_t icrc = crc.value();
  std::memcpy(out.data() + icrc_off, &icrc, rdma::kIcrcLen);
  return len;
}

std::size_t ReportCrafter::craft_multiwrite_into(
    const FrameTemplate& tpl, std::span<const std::byte> key,
    std::span<const std::byte> value, std::uint32_t psn,
    std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kMultiwrite ||
      out.size() < tpl.prototype_.size()) {
    return 0;
  }
  assert(value.size() == config_.value_bytes);
  const std::size_t len = tpl.prototype_.size();
  std::memcpy(out.data(), tpl.prototype_.data(), len);
  put_be32(out.data() + kDtaPsnOff, psn);
  std::byte* p = out.data() + kDtaDataOff;
  const std::uint32_t csum = hashes_.checksum_of(key, config_.checksum_bits);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    *p++ = static_cast<std::byte>((csum >> (8 * i)) & 0xFF);
  }
  std::memcpy(p, value.data(), value.size());
  p += value.size();
  std::array<std::uint64_t, 16> addrs;
  if (config_.n_addresses <= addrs.size()) {
    hashes_.addresses_of(key, tpl.dst_.n_slots,
                         std::span(addrs.data(), config_.n_addresses));
    for (std::uint32_t n = 0; n < config_.n_addresses; ++n) {
      put_be64(p + 8 * n, tpl.dst_.slot_vaddr(addrs[n]));
    }
  } else {
    for (std::uint32_t n = 0; n < config_.n_addresses; ++n) {
      put_be64(p + 8 * n, slot_vaddr(tpl.dst_, key, n));
    }
  }
  const std::size_t crc_off = len - rdma::kDtaCrcLen;
  Crc32 crc = tpl.crc_prefix_;
  crc.update(std::span<const std::byte>(out.data() + kDtaPsnOff,
                                        crc_off - kDtaPsnOff));
  const std::uint32_t v = crc.value();
  out[crc_off] = static_cast<std::byte>(v & 0xFF);
  out[crc_off + 1] = static_cast<std::byte>((v >> 8) & 0xFF);
  out[crc_off + 2] = static_cast<std::byte>((v >> 16) & 0xFF);
  out[crc_off + 3] = static_cast<std::byte>((v >> 24) & 0xFF);
  return len;
}

std::size_t ReportCrafter::craft_append_into(const FrameTemplate& tpl,
                                             const AppendRingConfig& ring,
                                             std::uint64_t seq,
                                             std::span<const std::byte> value,
                                             std::uint32_t psn,
                                             std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kAppend ||
      out.size() < tpl.prototype_.size()) {
    return 0;
  }
  assert(seq != 0);
  assert(value.size() == ring.value_bytes);
  const std::size_t len = tpl.prototype_.size();
  std::memcpy(out.data(), tpl.prototype_.data(), len);
  put_be24(out.data() + kPsnOff, psn & 0xFF'FFFFu);
  put_be64(out.data() + kRethVaddrOff,
           tpl.dst_.slot_vaddr(ring.slot_of(seq)));
  std::byte* p = out.data() + kWritePayloadOff;
  for (std::uint32_t i = 0; i < 8; ++i) {
    *p++ = static_cast<std::byte>((seq >> (8 * i)) & 0xFF);
  }
  std::memcpy(p, value.data(), value.size());
  const std::size_t icrc_off = len - rdma::kIcrcLen;
  Crc32 crc = tpl.crc_prefix_;
  crc.update(std::span<const std::byte>(
      out.data() + rdma::kIcrcVariantOffset,
      icrc_off - rdma::kIcrcVariantOffset));
  const std::uint32_t icrc = crc.value();
  std::memcpy(out.data() + icrc_off, &icrc, rdma::kIcrcLen);
  return len;
}

std::size_t ReportCrafter::craft_cell_increment_into(
    const FrameTemplate& tpl, const CellGeometry& cells,
    std::span<const std::byte> key, std::uint32_t row, std::uint64_t delta,
    std::uint32_t psn, std::span<std::byte> out) const {
  assert(row < cells.rows());
  return craft_fetch_add_into(
      tpl, tpl.dst_.slot_vaddr(cells.cell_of(key, row)), delta, psn, out);
}

std::size_t ReportCrafter::craft_postcard_into(
    const FrameTemplate& tpl, const PostcardConfig& postcards,
    std::span<const std::byte> flow_key, std::uint32_t hop,
    std::span<const std::byte> value, std::uint32_t psn,
    std::span<std::byte> out) const {
  if (tpl.kind_ != FrameTemplate::Kind::kPostcard ||
      out.size() < tpl.prototype_.size()) {
    return 0;
  }
  assert(hop < postcards.max_hops);
  assert(value.size() == postcards.value_bytes);
  const std::size_t len = tpl.prototype_.size();
  std::memcpy(out.data(), tpl.prototype_.data(), len);
  put_be24(out.data() + kPsnOff, psn & 0xFF'FFFFu);
  const std::uint64_t index =
      postcards.slot_index(postcards.group_of(flow_key), hop);
  put_be64(out.data() + kRethVaddrOff, tpl.dst_.slot_vaddr(index));
  std::byte* p = out.data() + kWritePayloadOff;
  const std::uint32_t csum = postcards.checksum_of(flow_key);
  for (std::uint32_t i = 0; i < postcards.checksum_bytes(); ++i) {
    *p++ = static_cast<std::byte>((csum >> (8 * i)) & 0xFF);
  }
  std::memcpy(p, value.data(), value.size());
  const std::size_t icrc_off = len - rdma::kIcrcLen;
  Crc32 crc = tpl.crc_prefix_;
  crc.update(std::span<const std::byte>(
      out.data() + rdma::kIcrcVariantOffset,
      icrc_off - rdma::kIcrcVariantOffset));
  const std::uint32_t icrc = crc.value();
  std::memcpy(out.data() + icrc_off, &icrc, rdma::kIcrcLen);
  return len;
}

std::vector<std::byte> ReportCrafter::wrap_frame(
    const RemoteStoreInfo& dst, const ReporterEndpoint& src,
    std::span<const std::byte> roce_payload) const {
  net::UdpFrameSpec spec;
  spec.src_mac = src.mac;
  spec.dst_mac = dst.mac;
  spec.src_ip = src.ip;
  spec.dst_ip = dst.ip;
  spec.src_port = src.udp_src_port;
  spec.dst_port = net::kRoceV2UdpPort;

  auto frame = net::build_udp_frame(spec, roce_payload);
  const bool ok = rdma::finalize_frame_icrc(frame);
  assert(ok);
  (void)ok;
  return frame;
}

}  // namespace dart::core
