#include "nand/block.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace esp::nand {

Block::Block(std::uint32_t pages_per_block, std::uint32_t subpages_per_page)
    : pages_(pages_per_block),
      subs_(subpages_per_page),
      mode_(pages_per_block, PageMode::kErased),
      programmed_(pages_per_block, 0),
      state_(static_cast<std::size_t>(pages_per_block) * subpages_per_page,
             SlotState::kEmpty),
      npp_(state_.size(), 0),
      token_(state_.size(), 0),
      written_at_(state_.size(), 0.0) {
  if (pages_ == 0 || subs_ == 0 || subs_ > kMaxSubpagesPerPage)
    throw std::invalid_argument("Block: bad page/subpage counts");
}

void Block::erase() {
  ++pe_cycles_;
  programmed_pages_ = 0;
  first_program_us_ = -1.0;
  std::fill(mode_.begin(), mode_.end(), PageMode::kErased);
  std::fill(programmed_.begin(), programmed_.end(), 0);
  std::fill(state_.begin(), state_.end(), SlotState::kEmpty);
  std::fill(npp_.begin(), npp_.end(), 0);
  std::fill(token_.begin(), token_.end(), 0);
  std::fill(written_at_.begin(), written_at_.end(), 0.0);
}

void Block::check_page(std::uint32_t page) const {
  if (page >= pages_)
    throw std::out_of_range("Block: page " + std::to_string(page) +
                            " out of range");
}

void Block::program_full(std::uint32_t page,
                         std::span<const std::uint64_t> tokens, SimTime now) {
  check_page(page);
  if (tokens.size() != subs_)
    throw std::logic_error("Block::program_full: token count != subpages");
  if (mode_[page] != PageMode::kErased)
    throw std::logic_error(
        "Block::program_full: page already programmed this erase cycle");
  mode_[page] = PageMode::kFull;
  programmed_[page] = static_cast<std::uint8_t>(subs_);
  if (programmed_pages_++ == 0) first_program_us_ = now;
  for (std::uint32_t s = 0; s < subs_; ++s) {
    const std::size_t i = idx(page, s);
    state_[i] = SlotState::kStored;
    npp_[i] = 0;
    token_[i] = tokens[s];
    written_at_[i] = now;
  }
}

void Block::program_subpage(std::uint32_t page, std::uint32_t slot,
                            std::uint64_t token, SimTime now) {
  check_page(page);
  if (slot >= subs_)
    throw std::out_of_range("Block::program_subpage: slot out of range");
  if (mode_[page] == PageMode::kFull)
    throw std::logic_error(
        "Block::program_subpage: page holds a full-page program");
  if (slot != programmed_[page])
    throw std::logic_error(
        "Block::program_subpage: slots must be programmed sequentially "
        "(next=" + std::to_string(programmed_[page]) +
        ", got=" + std::to_string(slot) + ")");
  // The physics of Fig. 4: the new program pulse destroys data in every
  // previously programmed slot of this word line.
  for (std::uint32_t s = 0; s < slot; ++s) {
    const std::size_t i = idx(page, s);
    if (state_[i] == SlotState::kStored) state_[i] = SlotState::kCorrupted;
  }
  const std::size_t i = idx(page, slot);
  state_[i] = SlotState::kStored;
  npp_[i] = programmed_[page];  // k prior program ops -> Npp^k type
  token_[i] = token;
  written_at_[i] = now;
  if (programmed_[page] == 0) {
    mode_[page] = PageMode::kEsp;
    if (programmed_pages_++ == 0) first_program_us_ = now;
  }
  ++programmed_[page];
}

void Block::throw_bad_slot(std::uint32_t page) const {
  check_page(page);
  throw std::out_of_range("Block::slot: slot out of range");
}

bool Block::is_erased() const { return programmed_pages_ == 0; }

void Block::save_state(util::StateWriter& w) const {
  w.tag("BLK0");
  w.u32(pages_);
  w.u32(subs_);
  w.u32(pe_cycles_);
  w.u32(programmed_pages_);
  w.f64(first_program_us_);
  w.pod_vec(mode_);
  w.pod_vec(programmed_);
  w.pod_vec(state_);
  w.pod_vec(npp_);
  w.pod_vec(token_);
  w.pod_vec(written_at_);
}

void Block::load_state(util::StateReader& r) {
  r.tag("BLK0");
  const std::uint32_t pages = r.u32();
  const std::uint32_t subs = r.u32();
  if (pages != pages_ || subs != subs_)
    throw std::runtime_error("Block::load_state: geometry mismatch");
  pe_cycles_ = r.u32();
  programmed_pages_ = r.u32();
  first_program_us_ = r.f64();
  r.pod_vec(mode_);
  r.pod_vec(programmed_);
  r.pod_vec(state_);
  r.pod_vec(npp_);
  r.pod_vec(token_);
  r.pod_vec(written_at_);
  if (mode_.size() != pages_ || programmed_.size() != pages_ ||
      state_.size() != static_cast<std::size_t>(pages_) * subs_ ||
      npp_.size() != state_.size() || token_.size() != state_.size() ||
      written_at_.size() != state_.size())
    throw std::runtime_error("Block::load_state: corrupt slot arrays");
}

}  // namespace esp::nand
