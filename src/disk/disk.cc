#include "src/disk/disk.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <string>

namespace vafs {

Disk::Disk(const DiskParameters& params, DiskOptions options)
    : model_(params), options_(options), injector_(options.faults) {
  if (options_.retain_data && !options_.image_path.empty()) {
    image_ = DiskImage::Open(options_.image_path, total_sectors(), bytes_per_sector(),
                             options_.image_truncate, &image_error_);
    // A refused image (unwritable path, geometry mismatch) is soft: the
    // sparse store takes over and simulated results are unchanged.
  }
}

namespace {

void EmitTransfer(obs::TraceSink* trace, obs::TraceEventKind kind, int64_t start_sector,
                  int64_t sectors, SimDuration service, SimTime time, int64_t seek_cylinders,
                  const char* detail = nullptr) {
  if (trace == nullptr) {
    return;
  }
  obs::TraceEvent event;
  event.kind = kind;
  event.time = time;
  event.sector = start_sector;
  event.blocks = sectors;
  event.duration = service;
  event.seek_cylinders = seek_cylinders;
  if (detail != nullptr) {
    event.detail = detail;
  }
  trace->OnEvent(event);
}

}  // namespace

SimTime Disk::TraceTime(SimDuration service) const {
  // Under a caller-provided clock the event ends `service` after the
  // caller's now; otherwise the cumulative busy clock (already advanced by
  // this operation) stands in.
  return time_hint_ != nullptr ? *time_hint_ + service : busy_time_;
}

Status Disk::CheckDeviceUp() {
  if (injector_.powered_off()) {
    // No power: the bus does not answer at all.
    last_fault_service_ = 0;
    EmitTransfer(trace_, obs::TraceEventKind::kDiskFault, 0, 0, 0, TraceTime(0), 0,
                 "powered_off");
    return Status(ErrorCode::kIoError, "disk powered off");
  }
  if (!failed_) {
    return Status::Ok();
  }
  // A dead device answers instantly (host-side timeout abstracted away).
  last_fault_service_ = 0;
  EmitTransfer(trace_, obs::TraceEventKind::kDiskFault, 0, 0, 0, TraceTime(0), 0,
               "device_failed");
  return Status(ErrorCode::kIoError, "disk failed");
}

void Disk::PowerCycle() {
  injector_.PowerRestore();
  head_cylinder_ = 0;
}

std::vector<int64_t> Disk::PopulatedSectors() const {
  if (image_ != nullptr) {
    return image_->PopulatedSectors();  // bitmap scan, already sorted
  }
  std::vector<int64_t> sectors;
  for (size_t p = 0; p < pages_.size(); ++p) {
    if (pages_[p] == nullptr) {
      continue;
    }
    for (int64_t within = 0; within < kPageSectors; ++within) {
      if (pages_[p]->has(within)) {
        sectors.push_back(static_cast<int64_t>(p) * kPageSectors + within);
      }
    }
  }
  return sectors;  // page order, then sector order within a page: sorted
}

bool Disk::SyncImage() { return image_ == nullptr || image_->Sync(); }

void Disk::CopyOut(int64_t start_sector, int64_t count, std::vector<uint8_t>* out) const {
  const int64_t sector_bytes = bytes_per_sector();
  out->resize(static_cast<size_t>(count * sector_bytes), 0);
  if (image_ != nullptr) {
    for (int64_t i = 0; i < count; ++i) {
      if (image_->IsPopulated(start_sector + i)) {
        std::memcpy(out->data() + static_cast<ptrdiff_t>(i * sector_bytes),
                    image_->SectorData(start_sector + i), static_cast<size_t>(sector_bytes));
      } else {
        std::memset(out->data() + static_cast<ptrdiff_t>(i * sector_bytes), 0,
                    static_cast<size_t>(sector_bytes));
      }
    }
    return;
  }
  for (int64_t i = 0; i < count;) {
    const int64_t sector = start_sector + i;
    const size_t page_index = static_cast<size_t>(sector / kPageSectors);
    const int64_t first = sector % kPageSectors;
    const int64_t run = std::min(count - i, kPageSectors - first);
    uint8_t* dst = out->data() + static_cast<ptrdiff_t>(i * sector_bytes);
    const Page* page = page_index < pages_.size() ? pages_[page_index].get() : nullptr;
    for (int64_t within = first; within < first + run; ++within, dst += sector_bytes) {
      if (page != nullptr && page->has(within)) {
        std::memcpy(dst, page->bytes.get() + within * sector_bytes,
                    static_cast<size_t>(sector_bytes));
      } else {
        std::memset(dst, 0, static_cast<size_t>(sector_bytes));
      }
    }
    i += run;
  }
}

void Disk::PersistSector(int64_t sector, const uint8_t* data) {
  const int64_t sector_bytes = bytes_per_sector();
  if (image_ != nullptr) {
    std::memcpy(image_->SectorData(sector), data, static_cast<size_t>(sector_bytes));
    image_->MarkPopulated(sector);
    return;
  }
  const size_t page_index = static_cast<size_t>(sector / kPageSectors);
  if (page_index >= pages_.size()) {
    pages_.resize(page_index + 1);
  }
  std::unique_ptr<Page>& page = pages_[page_index];
  if (page == nullptr) {
    page = std::make_unique<Page>();
    // Left uninitialized: only populated sectors are ever read back.
    page->bytes = std::make_unique_for_overwrite<uint8_t[]>(
        static_cast<size_t>(kPageSectors * sector_bytes));
  }
  const int64_t within = sector % kPageSectors;
  std::memcpy(page->bytes.get() + within * sector_bytes, data, static_cast<size_t>(sector_bytes));
  page->populated[within / 64] |= uint64_t{1} << (within % 64);
}

Status Disk::Faulted(FaultKind kind, int64_t start_sector, int64_t sectors,
                     SimDuration service) {
  // The mechanism did the work before the error surfaced: the arm moved and
  // the platter turned, only the data is missing.
  last_fault_service_ = service;
  EmitTransfer(trace_, obs::TraceEventKind::kDiskFault, start_sector, sectors, service,
               TraceTime(service), last_seek_cylinders_, FaultKindName(kind));
  if (kind == FaultKind::kBadSector) {
    return Status(ErrorCode::kBadSector,
                  "latent defect in extent [" + std::to_string(start_sector) + ", +" +
                      std::to_string(sectors) + ")");
  }
  return Status(ErrorCode::kIoError,
                "transient fault reading/writing extent [" + std::to_string(start_sector) +
                    ", +" + std::to_string(sectors) + ")");
}

void Disk::MoveHeadToCylinder(int64_t cylinder) {
  assert(cylinder >= 0 && cylinder < model_.params().cylinders);
  head_cylinder_ = cylinder;
}

Status Disk::ValidateExtent(int64_t start_sector, int64_t sectors) const {
  if (start_sector < 0 || sectors <= 0 || start_sector + sectors > total_sectors()) {
    return Status(ErrorCode::kOutOfRange,
                  "extent [" + std::to_string(start_sector) + ", +" + std::to_string(sectors) +
                      ") outside disk of " + std::to_string(total_sectors()) + " sectors");
  }
  return Status::Ok();
}

SimDuration Disk::Position(int64_t start_sector) {
  const int64_t target_cylinder = model_.SectorToCylinder(start_sector);
  const SimDuration seek = model_.SeekTime(head_cylinder_, target_cylinder);
  last_seek_cylinders_ = std::abs(target_cylinder - head_cylinder_);
  head_cylinder_ = target_cylinder;
  return seek + model_.AverageRotationalLatency();
}

SimDuration Disk::PeekServiceTime(int64_t start_sector, int64_t sectors) const {
  const int64_t target_cylinder = model_.SectorToCylinder(start_sector);
  return model_.SeekTime(head_cylinder_, target_cylinder) + model_.AverageRotationalLatency() +
         model_.TransferTime(sectors);
}

Result<SimDuration> Disk::Read(int64_t start_sector, int64_t sectors, std::vector<uint8_t>* out) {
  if (Status status = CheckDeviceUp(); !status.ok()) {
    return status;
  }
  if (Status status = ValidateExtent(start_sector, sectors); !status.ok()) {
    return status;
  }
  const SimDuration service = Position(start_sector) + model_.TransferTime(sectors);
  ++reads_;
  busy_time_ += service;
  // Arm ends on the cylinder of the last sector read.
  head_cylinder_ = model_.SectorToCylinder(start_sector + sectors - 1);
  if (FaultKind fault = injector_.OnRead(start_sector, sectors); fault != FaultKind::kNone) {
    return Faulted(fault, start_sector, sectors, service);
  }
  EmitTransfer(trace_, obs::TraceEventKind::kDiskRead, start_sector, sectors, service,
               TraceTime(service), last_seek_cylinders_);

  if (out != nullptr) {
    if (options_.retain_data) {
      CopyOut(start_sector, sectors, out);
    } else {
      out->clear();
    }
  }
  return service;
}

Result<SimDuration> Disk::ReadSalvage(int64_t start_sector, int64_t sectors,
                                      std::vector<uint8_t>* out) {
  if (Status status = CheckDeviceUp(); !status.ok()) {
    return status;
  }
  if (Status status = ValidateExtent(start_sector, sectors); !status.ok()) {
    return status;
  }
  // ECC heroics: the same mechanical access, repeated/slowed by the
  // configured factor, and immune to injected faults.
  const double factor = std::max(1.0, options_.faults.salvage_cost_multiplier);
  const SimDuration service = static_cast<SimDuration>(
      static_cast<double>(Position(start_sector) + model_.TransferTime(sectors)) * factor);
  ++reads_;
  busy_time_ += service;
  head_cylinder_ = model_.SectorToCylinder(start_sector + sectors - 1);
  EmitTransfer(trace_, obs::TraceEventKind::kDiskSalvage, start_sector, sectors, service,
               TraceTime(service), last_seek_cylinders_);

  if (out != nullptr) {
    if (options_.retain_data) {
      CopyOut(start_sector, sectors, out);
    } else {
      out->clear();
    }
  }
  return service;
}

Result<SimDuration> Disk::Write(int64_t start_sector, int64_t sectors,
                                std::span<const uint8_t> data) {
  if (Status status = CheckDeviceUp(); !status.ok()) {
    return status;
  }
  if (Status status = ValidateExtent(start_sector, sectors); !status.ok()) {
    return status;
  }
  const int64_t sector_bytes = bytes_per_sector();
  if (options_.retain_data && !data.empty() &&
      static_cast<int64_t>(data.size()) != sectors * sector_bytes) {
    return Status(ErrorCode::kInvalidArgument,
                  "write payload of " + std::to_string(data.size()) + " bytes does not cover " +
                      std::to_string(sectors) + " sectors");
  }
  const SimDuration service = Position(start_sector) + model_.TransferTime(sectors);
  ++writes_;
  busy_time_ += service;
  head_cylinder_ = model_.SectorToCylinder(start_sector + sectors - 1);
  const CrashVerdict crash = injector_.OnWriteCrashCheck(sectors);
  if (crash.power_cut) {
    // The rail dropped mid-transfer: the leading prefix_sectors (plus any
    // torn shred) reached the platter before everything went dark.
    if (options_.retain_data && !data.empty()) {
      auto persist = [&](int64_t i) {
        PersistSector(start_sector + i, data.data() + static_cast<ptrdiff_t>(i * sector_bytes));
      };
      for (int64_t i = 0; i < crash.prefix_sectors; ++i) {
        persist(i);
      }
      for (size_t i = 0; i < crash.shred.size(); ++i) {
        if (crash.shred[i]) {
          persist(crash.prefix_sectors + static_cast<int64_t>(i));
        }
      }
    }
    last_fault_service_ = service;
    EmitTransfer(trace_, obs::TraceEventKind::kPowerCut, start_sector, crash.prefix_sectors,
                 service, TraceTime(service), last_seek_cylinders_,
                 crash.shred.empty() ? "power_cut" : "power_cut_torn");
    return Status(ErrorCode::kIoError,
                  "power cut " + std::to_string(crash.prefix_sectors) + " sectors into write [" +
                      std::to_string(start_sector) + ", +" + std::to_string(sectors) + ")");
  }
  if (FaultKind fault = injector_.OnWrite(start_sector, sectors); fault != FaultKind::kNone) {
    return Faulted(fault, start_sector, sectors, service);
  }
  EmitTransfer(trace_, obs::TraceEventKind::kDiskWrite, start_sector, sectors, service,
               TraceTime(service), last_seek_cylinders_);

  if (options_.retain_data && !data.empty()) {
    for (int64_t i = 0; i < sectors; ++i) {
      PersistSector(start_sector + i, data.data() + static_cast<ptrdiff_t>(i * sector_bytes));
    }
  }
  return service;
}

}  // namespace vafs
