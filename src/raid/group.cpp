#include "raid/group.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "raid/gf256.h"

namespace nlss::raid {

RaidGroup::RaidGroup(sim::Engine& engine, std::vector<disk::Disk*> disks,
                     const Config& config)
    : engine_(engine),
      disks_(std::move(disks)),
      layout_(config.level, static_cast<std::uint32_t>(disks_.size()),
              config.unit_blocks),
      config_(config),
      block_size_(disks_.empty() ? 4096 : disks_[0]->profile().block_size),
      members_(disks_.size(), MemberState::kLive) {
  assert(!disks_.empty());
  for ([[maybe_unused]] const auto* d : disks_) {
    assert(d->profile().block_size == block_size_);
  }
}

std::uint64_t RaidGroup::DataCapacityBlocks() const {
  return layout_.DataCapacityBlocks(disks_[0]->profile().capacity_blocks);
}

std::uint64_t RaidGroup::StripeCount() const {
  return disks_[0]->profile().capacity_blocks / layout_.unit_blocks();
}

void RaidGroup::RefreshMemberStates() {
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    if (disks_[i]->failed() && members_[i] != MemberState::kFailed) {
      members_[i] = MemberState::kFailed;
    }
  }
}

unsigned RaidGroup::UnreadableCount() const {
  unsigned n = 0;
  for (const auto m : members_) {
    if (m != MemberState::kLive) ++n;
  }
  return n;
}

void RaidGroup::BeginRebuild(std::uint32_t disk_index) {
  assert(members_[disk_index] == MemberState::kFailed);
  assert(!disks_[disk_index]->failed() && "Replace() the disk first");
  members_[disk_index] = MemberState::kRebuilding;
}

void RaidGroup::FinishRebuild(std::uint32_t disk_index) {
  assert(members_[disk_index] == MemberState::kRebuilding);
  members_[disk_index] = MemberState::kLive;
}

// --- Stripe locks ---------------------------------------------------------

void RaidGroup::LockStripe(std::uint64_t stripe, util::Function<void()> grant) {
  auto [it, inserted] = stripe_locks_.try_emplace(stripe);
  if (inserted) {
    // Uncontended: run the grant on the event loop to keep call depth flat.
    engine_.Schedule(0, std::move(grant));
  } else {
    it->second.push_back(std::move(grant));
  }
}

void RaidGroup::UnlockStripe(std::uint64_t stripe) {
  auto it = stripe_locks_.find(stripe);
  assert(it != stripe_locks_.end());
  if (it->second.empty()) {
    stripe_locks_.erase(it);
  } else {
    auto next = std::move(it->second.front());
    it->second.pop_front();
    engine_.Schedule(0, std::move(next));
  }
}

void RaidGroup::Compute(std::uint64_t bytes, util::Function<void()> next) {
  compute_bytes_ += bytes;
  if (config_.compute == nullptr) {
    engine_.Schedule(0, std::move(next));
    return;
  }
  const sim::Tick done =
      config_.compute->AcquireBytes(bytes, config_.parity_ns_per_byte);
  engine_.ScheduleAt(done, std::move(next));
}

// --- Parity math -----------------------------------------------------------

void RaidGroup::ComputeParity(const std::vector<util::Payload>& data,
                              util::Payload& p, util::Payload& q) const {
  p = util::Payload::Xor(data);
  if (layout_.level() == RaidLevel::kRaid6) {
    const std::uint32_t ub = unit_bytes();
    q = util::Payload(ub, [&](std::span<std::uint8_t> out) {
      std::memset(out.data(), 0, ub);
      for (std::uint32_t u = 0; u < data.size(); ++u) {
        GfMulInto(out, data[u], Gf256::Exp(u));
      }
    });
  }
}

bool RaidGroup::Reconstruct(std::uint64_t stripe,
                            std::vector<util::Payload>& raw,
                            std::vector<util::Payload>& data_out) {
  const std::uint32_t du = layout_.DataUnitsPerStripe();
  const std::uint32_t ub = unit_bytes();
  data_out.assign(du, {});
  const util::Payload* p = nullptr;
  const util::Payload* q = nullptr;
  std::vector<std::uint32_t> missing;

  for (std::uint32_t d = 0; d < layout_.width(); ++d) {
    const UnitRole role = layout_.RoleOf(stripe, d);
    if (role.kind == UnitRole::kData) {
      if (!raw[d].empty()) {
        data_out[role.data_index] = std::move(raw[d]);
      } else {
        missing.push_back(role.data_index);
      }
    } else if (role.kind == UnitRole::kParityP) {
      if (!raw[d].empty()) p = &raw[d];
    } else {
      if (!raw[d].empty()) q = &raw[d];
    }
  }

  if (missing.empty()) return true;

  // P ^ S, with S the xor of the surviving data: deferred, and when P was
  // never read it cancels down to the missing units' own buffers.
  auto xor_of_surviving = [&](const util::Payload& parity) {
    std::vector<util::Payload> terms{parity};
    for (const util::Payload& unit : data_out) {
      if (!unit.empty()) terms.push_back(unit);
    }
    return util::Payload::Xor(terms);
  };
  // T (sum of g^u * surviving data) folded into `out`.
  auto fold_rs_of_surviving = [&](std::span<std::uint8_t> out) {
    for (std::uint32_t u = 0; u < du; ++u) {
      if (!data_out[u].empty()) GfMulInto(out, data_out[u], Gf256::Exp(u));
    }
  };

  if (missing.size() == 1) {
    const std::uint32_t u = missing[0];
    if (p != nullptr) {
      data_out[u] = xor_of_surviving(*p);
      return true;
    }
    if (q != nullptr && layout_.level() == RaidLevel::kRaid6) {
      data_out[u] = util::Payload(ub, [&](std::span<std::uint8_t> out) {
        std::memcpy(out.data(), q->data(), ub);
        fold_rs_of_surviving(out);
        GfScale(out, Gf256::Inv(Gf256::Exp(u)));
      });
      return true;
    }
    return false;
  }

  if (missing.size() == 2 && layout_.level() == RaidLevel::kRaid6 &&
      p != nullptr && q != nullptr) {
    const std::uint32_t u1 = missing[0];
    const std::uint32_t u2 = missing[1];
    const util::Payload a = xor_of_surviving(*p);  // A = P ^ S = D1 ^ D2
    // D1 = (g^u2 * A ^ B) / (g^u1 ^ g^u2), with B = Q ^ T.
    const std::uint8_t denom =
        static_cast<std::uint8_t>(Gf256::Exp(u1) ^ Gf256::Exp(u2));
    util::Payload d1(ub, [&](std::span<std::uint8_t> out) {
      std::memcpy(out.data(), q->data(), ub);
      fold_rs_of_surviving(out);
      GfMulInto(out, a, Gf256::Exp(u2));
      GfScale(out, Gf256::Inv(denom));
    });
    const util::Payload a_and_d1[] = {a, d1};
    data_out[u2] = util::Payload::Xor(a_and_d1);
    data_out[u1] = std::move(d1);
    return true;
  }

  return false;
}

// --- Fetch -----------------------------------------------------------------

void RaidGroup::FetchAllData(std::uint64_t stripe, FetchCallback cb,
                             obs::TraceContext ctx) {
  RefreshMemberStates();
  const std::uint32_t du = layout_.DataUnitsPerStripe();
  const std::uint32_t width = layout_.width();
  const std::uint64_t lba = layout_.StripeLba(stripe);
  const std::uint32_t ublocks = layout_.unit_blocks();

  if (layout_.level() == RaidLevel::kRaid1) {
    // Read the whole unit from one live mirror, rotating by stripe.
    for (std::uint32_t k = 0; k < width; ++k) {
      const std::uint32_t m = (static_cast<std::uint32_t>(stripe) + k) % width;
      if (!Readable(m)) continue;
      disks_[m]->Read(
          lba, ublocks,
          [cb = std::move(cb)](bool ok, util::Payload data) {
            StripeData sd;
            sd.ok = ok;
            if (ok) sd.units.push_back(std::move(data));
            cb(std::move(sd));
          },
          ctx);
      return;
    }
    engine_.Schedule(0, [cb = std::move(cb)] { cb(StripeData{}); });
    return;
  }

  // Decide whether any data-role member is unreadable.
  bool degraded = false;
  for (std::uint32_t u = 0; u < du; ++u) {
    if (!Readable(layout_.DiskForData(stripe, u))) {
      degraded = true;
      break;
    }
  }

  if (layout_.level() == RaidLevel::kRaid0 && degraded) {
    engine_.Schedule(0, [cb = std::move(cb)] { cb(StripeData{}); });
    return;
  }

  struct FetchState {
    std::vector<util::Payload> raw;  // per disk; empty if not read/failed
    FetchCallback cb;
  };
  auto state = std::make_shared<FetchState>();
  state->raw.assign(width, {});
  state->cb = std::move(cb);

  // Healthy: read just the data units.  Degraded: read every readable
  // member (parity included) and reconstruct.
  std::vector<std::uint32_t> targets;
  if (!degraded) {
    for (std::uint32_t u = 0; u < du; ++u) {
      targets.push_back(layout_.DiskForData(stripe, u));
    }
  } else {
    for (std::uint32_t d = 0; d < width; ++d) {
      if (Readable(d)) targets.push_back(d);
    }
  }

  auto finish = [this, stripe, state, degraded, ctx](bool ok) {
    StripeData sd;
    // Even if some reads failed mid-flight, attempt reconstruction from
    // what arrived.
    std::vector<util::Payload> data;
    if (Reconstruct(stripe, state->raw, data)) {
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(data.size()) * unit_bytes();
      sd.ok = true;
      sd.units = std::move(data);
      Compute(degraded ? bytes : 0, [state, sd = std::move(sd)]() mutable {
        state->cb(std::move(sd));
      });
      return;
    }
    if (!ok && !degraded) {
      // A member died mid-flight on the healthy path; retry once — the
      // refreshed member states route the retry through reconstruction.
      FetchAllData(stripe, std::move(state->cb), ctx);
      return;
    }
    state->cb(StripeData{});
  };
  auto join = std::make_shared<util::Join>(static_cast<int>(targets.size()),
                                           std::move(finish));
  for (const std::uint32_t d : targets) {
    disks_[d]->Read(
        lba, ublocks,
        [state, join, d](bool ok, util::Payload data) {
          if (ok) state->raw[d] = std::move(data);
          join->Arrive(ok);
        },
        ctx);
  }
}

// --- Reads -----------------------------------------------------------------

void RaidGroup::StripeRead(std::uint64_t stripe, std::uint32_t first_block,
                           std::uint32_t block_count, PartsCallback done,
                           obs::TraceContext ctx) {
  RefreshMemberStates();
  const std::uint32_t ublocks = layout_.unit_blocks();
  const std::uint64_t lba0 = layout_.StripeLba(stripe);

  // Fallback path used when a member is unreadable (or a read fails
  // mid-flight): fetch all data, slice the requested range.
  auto degraded_read = [this, stripe, first_block, block_count,
                        ctx](PartsCallback done) {
    FetchAllData(
        stripe,
        [this, first_block, block_count,
         done = std::move(done)](StripeData sd) mutable {
          if (!sd.ok) {
            done(false, {});
            return;
          }
          const std::uint32_t ub = layout_.unit_blocks();
          const std::uint32_t end = first_block + block_count;
          std::vector<util::Payload> parts;
          for (std::uint32_t u = first_block / ub; u * ub < end; ++u) {
            const std::uint32_t a = std::max(first_block, u * ub) - u * ub;
            const std::uint32_t b = std::min(end, (u + 1) * ub) - u * ub;
            parts.push_back(sd.units[u].Slice(
                static_cast<std::size_t>(a) * block_size_,
                static_cast<std::size_t>(b - a) * block_size_));
          }
          done(true, std::move(parts));
        },
        ctx);
  };

  if (layout_.level() == RaidLevel::kRaid1) {
    for (std::uint32_t k = 0; k < layout_.width(); ++k) {
      const std::uint32_t m =
          (static_cast<std::uint32_t>(stripe) + k) % layout_.width();
      if (!Readable(m)) continue;
      disks_[m]->Read(
          lba0 + first_block, block_count,
          [done = std::move(done), degraded_read](
              bool ok, util::Payload data) mutable {
            if (!ok) {
              degraded_read(std::move(done));
              return;
            }
            std::vector<util::Payload> parts;
            parts.push_back(std::move(data));
            done(true, std::move(parts));
          },
          ctx);
      return;
    }
    done(false, {});
    return;
  }

  // Check whether all touched units are on readable disks.
  const std::uint32_t u_first = first_block / ublocks;
  const std::uint32_t u_last = (first_block + block_count - 1) / ublocks;
  bool healthy = true;
  for (std::uint32_t u = u_first; u <= u_last; ++u) {
    if (!Readable(layout_.DiskForData(stripe, u))) {
      healthy = false;
      break;
    }
  }
  if (!healthy) {
    degraded_read(std::move(done));
    return;
  }

  // Healthy fast path: one disk read per touched unit sub-range.
  struct ReadState {
    bool any_failed = false;
    std::vector<util::Payload> parts;  // one per touched unit, in order
  };
  auto state = std::make_shared<ReadState>();
  state->parts.resize(u_last - u_first + 1);
  auto finish = [state, done = std::move(done), degraded_read](bool ok) mutable {
    if (ok && !state->any_failed) {
      done(true, std::move(state->parts));
    } else {
      // A member died mid-operation; retry once via reconstruction.
      degraded_read(std::move(done));
    }
  };
  auto join =
      std::make_shared<util::Join>(static_cast<int>(u_last - u_first + 1),
                                   std::move(finish));
  for (std::uint32_t u = u_first; u <= u_last; ++u) {
    const std::uint32_t a = std::max(first_block, u * ublocks) - u * ublocks;
    const std::uint32_t b =
        std::min(first_block + block_count, (u + 1) * ublocks) - u * ublocks;
    const std::uint32_t d = layout_.DiskForData(stripe, u);
    disks_[d]->Read(
        lba0 + a, b - a,
        [state, join, slot = u - u_first](bool ok, util::Payload data) {
          if (ok) {
            state->parts[slot] = std::move(data);
          } else {
            state->any_failed = true;
          }
          join->Arrive(true);  // degraded retry handled in finish
        },
        ctx);
  }
}

void RaidGroup::ReadBlocks(std::uint64_t block, std::uint32_t count,
                           ReadCallback cb, obs::TraceContext ctx) {
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kRaid, "raid.read");
  assert(count > 0);
  assert(block + count <= DataCapacityBlocks());
  const std::uint32_t dbs = layout_.DataBlocksPerStripe();

  // Split into per-stripe sub-operations.
  struct Piece {
    std::uint64_t stripe;
    std::uint32_t first;  // data-block offset within stripe
    std::uint32_t count;
  };
  std::vector<Piece> pieces;
  std::uint64_t blk = block;
  std::uint32_t left = count;
  while (left > 0) {
    const std::uint64_t stripe = blk / dbs;
    const std::uint32_t first = static_cast<std::uint32_t>(blk % dbs);
    const std::uint32_t n = std::min(left, dbs - first);
    pieces.push_back(Piece{stripe, first, n});
    blk += n;
    left -= n;
  }

  // Per-stripe views, joined into one payload only when there are several.
  auto parts =
      std::make_shared<std::vector<std::vector<util::Payload>>>(pieces.size());
  auto join = std::make_shared<util::Join>(
      static_cast<int>(pieces.size()),
      [parts, span, cb = std::move(cb)](bool ok) {
        obs::EndSpan(span);
        if (!ok) {
          cb(false, {});
          return;
        }
        std::vector<util::Payload> all;
        for (auto& stripe_parts : *parts) {
          for (auto& part : stripe_parts) all.push_back(std::move(part));
        }
        cb(true, util::Payload::Concat(all));
      });
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece p = pieces[i];
    LockStripe(p.stripe, [this, p, i, parts, join, span] {
      StripeRead(
          p.stripe, p.first, p.count,
          [this, p, i, parts, join](bool ok, std::vector<util::Payload> got) {
            UnlockStripe(p.stripe);
            (*parts)[i] = std::move(got);
            join->Arrive(ok);
          },
          span);
    });
  }
}

// --- Writes ----------------------------------------------------------------

void RaidGroup::StripeWriteRaid01(std::uint64_t stripe,
                                  std::uint32_t first_block,
                                  std::uint32_t block_count,
                                  const util::Payload& src,
                                  util::Function<void(bool)> done,
                                  obs::TraceContext ctx) {
  const std::uint64_t lba0 = layout_.StripeLba(stripe);
  const std::uint32_t bs = block_size_;

  if (layout_.level() == RaidLevel::kRaid1) {
    std::vector<std::uint32_t> targets;
    for (std::uint32_t m = 0; m < layout_.width(); ++m) {
      if (Writable(m)) targets.push_back(m);
    }
    if (targets.empty()) {
      done(false);
      return;
    }
    auto join = std::make_shared<util::Join>(
        static_cast<int>(targets.size()),
        [this, done = std::move(done)](bool) {
          RefreshMemberStates();
          // RAID-1 data survives while at least one mirror is writable.
          done(UnreadableCount() < layout_.width());
        });
    for (const std::uint32_t m : targets) {
      disks_[m]->Write(
          lba0 + first_block, src, [join](bool ok) { join->Arrive(ok); },
          ctx);
    }
    return;
  }

  // RAID-0: write through to the touched units; any failure is fatal.
  const std::uint32_t ublocks = layout_.unit_blocks();
  const std::uint32_t u_first = first_block / ublocks;
  const std::uint32_t u_last = (first_block + block_count - 1) / ublocks;
  auto join = std::make_shared<util::Join>(
      static_cast<int>(u_last - u_first + 1), std::move(done));
  for (std::uint32_t u = u_first; u <= u_last; ++u) {
    const std::uint32_t a = std::max(first_block, u * ublocks) - u * ublocks;
    const std::uint32_t b =
        std::min(first_block + block_count, (u + 1) * ublocks) - u * ublocks;
    const std::uint32_t d = layout_.DiskForData(stripe, u);
    if (!Writable(d)) {
      join->Arrive(false);
      continue;
    }
    disks_[d]->Write(
        lba0 + a,
        src.Slice((static_cast<std::size_t>(u) * ublocks + a - first_block) *
                      bs,
                  static_cast<std::size_t>(b - a) * bs),
        [join](bool ok) { join->Arrive(ok); }, ctx);
  }
}

void RaidGroup::StripeWriteParity(std::uint64_t stripe,
                                  std::uint32_t first_block,
                                  std::uint32_t block_count,
                                  util::Payload src,
                                  util::Function<void(bool)> done,
                                  obs::TraceContext ctx) {
  const std::uint32_t du = layout_.DataUnitsPerStripe();
  const std::uint32_t dbs = layout_.DataBlocksPerStripe();
  const std::uint32_t ub = unit_bytes();
  const std::uint32_t ublocks = layout_.unit_blocks();
  const std::uint32_t bs = block_size_;
  const std::uint64_t lba0 = layout_.StripeLba(stripe);

  // The write-back phase common to the full-stripe and partial paths.
  auto write_phase = [this, stripe, first_block, block_count, lba0, du,
                      ublocks, ctx, done = std::move(done)](
                         std::vector<util::Payload> data) mutable {
    if (data.empty()) {
      done(false);
      return;
    }
    // Compact first: the deferred parity then holds exactly the unit
    // handles the data disks store, never a view pinning a larger buffer.
    for (util::Payload& unit : data) unit = unit.Compact();
    util::Payload p, q;
    ComputeParity(data, p, q);
    const std::uint64_t parity_bytes =
        static_cast<std::uint64_t>(data.size()) * unit_bytes();
    Compute(parity_bytes, [this, stripe, first_block, block_count, lba0, du,
                           ublocks, ctx, data = std::move(data),
                           p = std::move(p), q = std::move(q),
                           done = std::move(done)]() mutable {
      const std::uint32_t u_first = first_block / ublocks;
      const std::uint32_t u_last = (first_block + block_count - 1) / ublocks;

      struct Target {
        std::uint32_t disk;
        const util::Payload* content;
      };
      std::vector<Target> targets;
      for (std::uint32_t u = u_first; u <= u_last && u < du; ++u) {
        const std::uint32_t d = layout_.DiskForData(stripe, u);
        if (Writable(d)) targets.push_back({d, &data[u]});
      }
      const std::uint32_t pd = layout_.PDisk(stripe);
      if (Writable(pd)) targets.push_back({pd, &p});
      if (layout_.level() == RaidLevel::kRaid6) {
        const std::uint32_t qd = layout_.QDisk(stripe);
        if (Writable(qd)) targets.push_back({qd, &q});
      }
      if (targets.empty()) {
        done(false);
        return;
      }
      auto join = std::make_shared<util::Join>(
          static_cast<int>(targets.size()),
          [this, done = std::move(done)](bool) {
            RefreshMemberStates();
            done(Operational());
          });
      // Each disk keeps the unit payload it is handed until the write lands.
      for (const Target& t : targets) {
        disks_[t.disk]->Write(
            lba0, *t.content, [join](bool ok) { join->Arrive(ok); }, ctx);
      }
    });
  };

  if (first_block == 0 && block_count == dbs) {
    // Full-stripe write: parity from new data, no reads; each data unit is
    // a view of the incoming payload.
    std::vector<util::Payload> data(du);
    for (std::uint32_t u = 0; u < du; ++u) {
      data[u] = src.Slice(static_cast<std::size_t>(u) * ub, ub);
    }
    write_phase(std::move(data));
    return;
  }

  // Partial write: fetch-merge-recompute (reconstruct-write).
  FetchAllData(
      stripe,
      [first_block, block_count, src = std::move(src), bs, ub, ublocks,
       write_phase = std::move(write_phase)](StripeData sd) mutable {
        if (!sd.ok) {
          // Cannot reconstruct the stripe's current contents: the group has
          // lost data; fail the write.
          write_phase({});  // no targets -> reports failure
          return;
        }
        // A unit the write covers whole becomes a view of the payload; a
        // partly covered one is merged into a fresh unit.
        const std::uint32_t end = first_block + block_count;
        for (std::uint32_t u = first_block / ublocks; u * ublocks < end;
             ++u) {
          const std::uint32_t a =
              std::max(first_block, u * ublocks) - u * ublocks;
          const std::uint32_t b =
              std::min(end, (u + 1) * ublocks) - u * ublocks;
          const util::Payload patch = src.Slice(
              (static_cast<std::size_t>(u) * ublocks + a - first_block) * bs,
              static_cast<std::size_t>(b - a) * bs);
          if (b - a == ublocks) {
            sd.units[u] = patch;
            continue;
          }
          const util::Payload& old = sd.units[u];
          sd.units[u] = util::Payload(ub, [&](std::span<std::uint8_t> out) {
            std::memcpy(out.data(), old.data(), ub);
            std::memcpy(out.data() + static_cast<std::size_t>(a) * bs,
                        patch.data(), patch.size());
          });
        }
        write_phase(std::move(sd.units));
      },
      ctx);
}

void RaidGroup::StripeWrite(std::uint64_t stripe, std::uint32_t first_block,
                            std::uint32_t block_count, util::Payload src,
                            util::Function<void(bool)> done,
                            obs::TraceContext ctx) {
  RefreshMemberStates();
  if (layout_.level() == RaidLevel::kRaid0 ||
      layout_.level() == RaidLevel::kRaid1) {
    StripeWriteRaid01(stripe, first_block, block_count, src, std::move(done),
                      ctx);
  } else {
    StripeWriteParity(stripe, first_block, block_count, std::move(src),
                      std::move(done), ctx);
  }
}

void RaidGroup::WriteBlocks(std::uint64_t block, const util::Payload& data,
                            WriteCallback cb, obs::TraceContext ctx) {
  const obs::TraceContext span =
      obs::StartSpan(ctx, obs::Layer::kRaid, "raid.write");
  assert(!data.empty());
  assert(data.size() % block_size_ == 0);
  const std::uint32_t count = static_cast<std::uint32_t>(data.size() / block_size_);
  assert(block + count <= DataCapacityBlocks());
  const std::uint32_t dbs = layout_.DataBlocksPerStripe();

  struct Piece {
    std::uint64_t stripe;
    std::uint32_t first;
    std::uint32_t count;
    util::Payload src;  // this stripe's share of `data`
  };
  std::vector<Piece> pieces;
  std::uint64_t blk = block;
  std::uint32_t left = count;
  std::size_t off = 0;
  while (left > 0) {
    const std::uint64_t stripe = blk / dbs;
    const std::uint32_t first = static_cast<std::uint32_t>(blk % dbs);
    const std::uint32_t n = std::min(left, dbs - first);
    const std::size_t len = static_cast<std::size_t>(n) * block_size_;
    pieces.push_back(Piece{stripe, first, n, data.Slice(off, len)});
    blk += n;
    left -= n;
    off += len;
  }

  auto join = std::make_shared<util::Join>(
      static_cast<int>(pieces.size()), [span, cb = std::move(cb)](bool ok) {
        obs::EndSpan(span);
        cb(ok);
      });
  for (Piece& p : pieces) {
    LockStripe(p.stripe, [this, stripe = p.stripe, first = p.first,
                          n = p.count, src = std::move(p.src), join,
                          span]() mutable {
      StripeWrite(
          stripe, first, n, std::move(src),
          [this, stripe, join](bool ok) {
            UnlockStripe(stripe);
            join->Arrive(ok);
          },
          span);
    });
  }
}

// --- Rebuild ---------------------------------------------------------------

void RaidGroup::RebuildStripe(std::uint64_t stripe, std::uint32_t disk_index,
                              WriteCallback cb) {
  assert(members_[disk_index] == MemberState::kRebuilding);
  LockStripe(stripe, [this, stripe, disk_index, cb = std::move(cb)]() mutable {
    FetchAllData(stripe, [this, stripe, disk_index, cb = std::move(cb)](
                             StripeData sd) mutable {
      if (!sd.ok) {
        UnlockStripe(stripe);
        cb(false);
        return;
      }
      const UnitRole role = layout_.RoleOf(stripe, disk_index);
      util::Payload content;
      std::uint64_t extra_compute = 0;
      if (role.kind == UnitRole::kData) {
        content = std::move(sd.units[role.data_index]);
      } else {
        util::Payload p, q;
        ComputeParity(sd.units, p, q);
        content = role.kind == UnitRole::kParityP ? std::move(p) : std::move(q);
        extra_compute =
            static_cast<std::uint64_t>(sd.units.size()) * unit_bytes();
      }
      Compute(extra_compute, [this, stripe, disk_index,
                              content = std::move(content),
                              cb = std::move(cb)]() mutable {
        disks_[disk_index]->Write(
            layout_.StripeLba(stripe), std::move(content),
            [this, stripe, cb = std::move(cb)](bool ok) {
              UnlockStripe(stripe);
              cb(ok);
            });
      });
    });
  });
}

}  // namespace nlss::raid
