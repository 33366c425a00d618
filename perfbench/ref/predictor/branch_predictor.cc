#include "predictor/branch_predictor.hh"

#include "common/logging.hh"

namespace mcd
{

namespace
{

std::uint64_t
maskFor(int entries)
{
    if (entries <= 0 || (entries & (entries - 1)) != 0)
        mcd_fatal("predictor table size %d must be a power of two",
                  entries);
    return static_cast<std::uint64_t>(entries - 1);
}

/** Drop the low two PC bits (instruction alignment) before indexing. */
inline std::uint64_t
pcIndex(std::uint64_t pc)
{
    return pc >> 2;
}

/** Byte-table serialization shared by the counter arrays. */
template <typename T>
void
saveTable(std::string &out, const std::vector<T> &table)
{
    serial::appendU64(out, table.size());
    for (T v : table)
        serial::appendU64(out, static_cast<std::uint64_t>(v));
}

template <typename T>
bool
loadTable(serial::Reader &in, std::vector<T> &table)
{
    if (in.readU64() != table.size())
        return false;
    for (T &v : table)
        v = static_cast<T>(in.readU64());
    return in.ok();
}

} // namespace

BimodalPredictor::BimodalPredictor(int entries)
    : counters_(static_cast<std::size_t>(entries), 2), // weakly taken
      mask_(maskFor(entries))
{
}

bool
BimodalPredictor::predict(std::uint64_t pc) const
{
    return satcnt::taken(counters_[pcIndex(pc) & mask_]);
}

void
BimodalPredictor::update(std::uint64_t pc, bool taken)
{
    auto &counter = counters_[pcIndex(pc) & mask_];
    counter = satcnt::update(counter, taken);
}

TwoLevelPredictor::TwoLevelPredictor(int l1_entries, int history_bits,
                                     int l2_entries)
    : history_(static_cast<std::size_t>(l1_entries), 0),
      pht_(static_cast<std::size_t>(l2_entries), 2),
      l1_mask_(maskFor(l1_entries)),
      l2_mask_(maskFor(l2_entries)),
      history_mask_(static_cast<std::uint16_t>((1u << history_bits) - 1))
{
}

std::size_t
TwoLevelPredictor::phtIndex(std::uint64_t pc) const
{
    std::uint16_t hist = history_[pcIndex(pc) & l1_mask_];
    // XOR-fold history with the PC so distinct branches sharing history
    // patterns interfere less (gshare-flavored second level).
    return static_cast<std::size_t>(
        (hist ^ pcIndex(pc)) & l2_mask_);
}

bool
TwoLevelPredictor::predict(std::uint64_t pc) const
{
    return satcnt::taken(pht_[phtIndex(pc)]);
}

void
TwoLevelPredictor::update(std::uint64_t pc, bool taken)
{
    auto &counter = pht_[phtIndex(pc)];
    counter = satcnt::update(counter, taken);
    auto &hist = history_[pcIndex(pc) & l1_mask_];
    hist = static_cast<std::uint16_t>(
        ((hist << 1) | (taken ? 1u : 0u)) & history_mask_);
}

CombiningPredictor::CombiningPredictor(int chooser_entries,
                                       int bimodal_entries,
                                       int l1_entries, int history_bits,
                                       int l2_entries)
    : bimodal_(bimodal_entries),
      two_level_(l1_entries, history_bits, l2_entries),
      chooser_(static_cast<std::size_t>(chooser_entries), 2),
      chooser_mask_(maskFor(chooser_entries))
{
}

bool
CombiningPredictor::predict(std::uint64_t pc) const
{
    bool use_two_level =
        satcnt::taken(chooser_[pcIndex(pc) & chooser_mask_]);
    return use_two_level ? two_level_.predict(pc) : bimodal_.predict(pc);
}

void
CombiningPredictor::update(std::uint64_t pc, bool taken)
{
    bool bimodal_correct = bimodal_.predict(pc) == taken;
    bool two_level_correct = two_level_.predict(pc) == taken;
    if (bimodal_correct != two_level_correct) {
        auto &counter = chooser_[pcIndex(pc) & chooser_mask_];
        counter = satcnt::update(counter, two_level_correct);
    }
    bimodal_.update(pc, taken);
    two_level_.update(pc, taken);
}

Btb::Btb(int sets, int ways)
    : sets_(sets), ways_(ways),
      entries_(static_cast<std::size_t>(sets) *
               static_cast<std::size_t>(ways))
{
    maskFor(sets); // validates power of two
}

std::size_t
Btb::setBase(std::uint64_t pc) const
{
    std::uint64_t set = pcIndex(pc) &
        static_cast<std::uint64_t>(sets_ - 1);
    return static_cast<std::size_t>(set) *
           static_cast<std::size_t>(ways_);
}

std::optional<std::uint64_t>
Btb::lookup(std::uint64_t pc) const
{
    std::size_t base = setBase(pc);
    for (int w = 0; w < ways_; ++w) {
        const Entry &entry = entries_[base + static_cast<std::size_t>(w)];
        if (entry.valid && entry.tag == pcIndex(pc))
            return entry.target;
    }
    return std::nullopt;
}

void
Btb::update(std::uint64_t pc, std::uint64_t target)
{
    ++lru_clock_;
    std::size_t base = setBase(pc);
    Entry *victim = &entries_[base];
    for (int w = 0; w < ways_; ++w) {
        Entry &entry = entries_[base + static_cast<std::size_t>(w)];
        if (entry.valid && entry.tag == pcIndex(pc)) {
            entry.target = target;
            entry.lruStamp = lru_clock_;
            return;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (!victim->valid ? false
                                  : entry.lruStamp < victim->lruStamp) {
            victim = &entry;
        }
    }
    victim->valid = true;
    victim->tag = pcIndex(pc);
    victim->target = target;
    victim->lruStamp = lru_clock_;
}

Ras::Ras(int entries)
    : stack_(static_cast<std::size_t>(entries), 0)
{
    if (entries <= 0)
        mcd_fatal("RAS needs at least one entry");
}

void
Ras::push(std::uint64_t return_pc)
{
    stack_[static_cast<std::size_t>(top_)] = return_pc;
    top_ = (top_ + 1) % static_cast<int>(stack_.size());
    if (size_ < static_cast<int>(stack_.size()))
        ++size_;
}

std::optional<std::uint64_t>
Ras::pop()
{
    if (size_ == 0)
        return std::nullopt;
    top_ = (top_ + static_cast<int>(stack_.size()) - 1) %
           static_cast<int>(stack_.size());
    --size_;
    return stack_[static_cast<std::size_t>(top_)];
}

void
BimodalPredictor::saveState(std::string &out) const
{
    saveTable(out, counters_);
}

bool
BimodalPredictor::loadState(serial::Reader &in)
{
    return loadTable(in, counters_);
}

void
TwoLevelPredictor::saveState(std::string &out) const
{
    saveTable(out, history_);
    saveTable(out, pht_);
}

bool
TwoLevelPredictor::loadState(serial::Reader &in)
{
    return loadTable(in, history_) && loadTable(in, pht_);
}

void
CombiningPredictor::saveState(std::string &out) const
{
    bimodal_.saveState(out);
    two_level_.saveState(out);
    saveTable(out, chooser_);
}

bool
CombiningPredictor::loadState(serial::Reader &in)
{
    return bimodal_.loadState(in) && two_level_.loadState(in) &&
           loadTable(in, chooser_);
}

void
Btb::saveState(std::string &out) const
{
    serial::appendU64(out, entries_.size());
    for (const Entry &entry : entries_) {
        serial::appendU64(out, entry.tag);
        serial::appendU64(out, entry.target);
        serial::appendU64(out, entry.valid ? 1 : 0);
        serial::appendU64(out, entry.lruStamp);
    }
    serial::appendU64(out, lru_clock_);
}

bool
Btb::loadState(serial::Reader &in)
{
    if (in.readU64() != entries_.size())
        return false;
    for (Entry &entry : entries_) {
        entry.tag = in.readU64();
        entry.target = in.readU64();
        entry.valid = in.readU64() != 0;
        entry.lruStamp = in.readU64();
    }
    lru_clock_ = in.readU64();
    return in.ok();
}

void
Ras::saveState(std::string &out) const
{
    saveTable(out, stack_);
    serial::appendI64(out, top_);
    serial::appendI64(out, size_);
}

bool
Ras::loadState(serial::Reader &in)
{
    if (!loadTable(in, stack_))
        return false;
    top_ = static_cast<int>(in.readI64());
    size_ = static_cast<int>(in.readI64());
    return in.ok();
}

void
BranchPredictor::saveState(std::string &out) const
{
    direction_.saveState(out);
    btb_.saveState(out);
    ras_.saveState(out);
    serial::appendU64(out, lookups_.value());
}

bool
BranchPredictor::loadState(serial::Reader &in)
{
    if (!direction_.loadState(in) || !btb_.loadState(in) ||
        !ras_.loadState(in))
        return false;
    lookups_.set(in.readU64());
    return in.ok();
}

BranchPredictor::BranchPredictor() = default;

BranchPrediction
BranchPredictor::predict(std::uint64_t pc, bool is_call, bool is_return,
                         std::uint64_t fallthrough)
{
    lookups_.inc();
    BranchPrediction prediction;

    if (is_return) {
        if (auto target = ras_.pop()) {
            prediction.predictTaken = true;
            prediction.target = *target;
            prediction.fromRas = true;
            return prediction;
        }
        // Fall through to BTB below if the RAS is empty.
    }

    auto btb_target = btb_.lookup(pc);
    prediction.btbHit = btb_target.has_value();
    bool taken = direction_.predict(pc);
    // Unconditional calls are always taken once the target is known.
    if (is_call)
        taken = true;
    if (taken && btb_target) {
        prediction.predictTaken = true;
        prediction.target = *btb_target;
    }
    // Without a BTB target the front end cannot redirect, so the
    // effective prediction is not-taken even if the direction said taken.

    if (is_call)
        ras_.push(fallthrough);
    return prediction;
}

void
BranchPredictor::update(std::uint64_t pc, bool taken, std::uint64_t target,
                        bool is_call, bool is_return)
{
    if (!is_return)
        direction_.update(pc, taken);
    if (taken && !is_return)
        btb_.update(pc, target);
    (void)is_call;
}

} // namespace mcd
