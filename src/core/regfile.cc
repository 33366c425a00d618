#include "core/regfile.hh"

#include "common/logging.hh"

namespace mcd
{

PhysRegFile::PhysRegFile(int num_regs)
    : regs_(static_cast<std::size_t>(num_regs))
{
    free_list_.reserve(static_cast<std::size_t>(num_regs));
    for (int r = num_regs - 1; r >= 0; --r)
        free_list_.push_back(r);
}

void
PhysRegFile::badRegister(int reg)
{
    mcd_panic("freeing bad physical register %d", reg);
}

void
PhysRegFile::saveState(std::string &out) const
{
    serial::appendU64(out, regs_.size());
    for (const Entry &e : regs_) {
        serial::appendU64(out, e.written ? 1 : 0);
        serial::appendI64(out, e.writeTime);
        serial::appendI64(out, static_cast<int>(e.producer));
    }
    serial::appendU64(out, free_list_.size());
    for (int r : free_list_)
        serial::appendI64(out, r);
}

bool
PhysRegFile::loadState(serial::Reader &in)
{
    if (in.readU64() != regs_.size())
        return false;
    for (Entry &e : regs_) {
        e.written = in.readU64() != 0;
        e.writeTime = in.readI64();
        std::int64_t producer = in.readI64();
        if (producer < 0 || producer >= NUM_DOMAINS)
            return false;
        e.producer = static_cast<DomainId>(producer);
    }
    std::uint64_t free_count = in.readU64();
    if (!in.ok() || free_count > regs_.size())
        return false;
    free_list_.clear();
    for (std::uint64_t i = 0; i < free_count; ++i) {
        std::int64_t r = in.readI64();
        if (r < 0 || r >= size())
            return false;
        free_list_.push_back(static_cast<int>(r));
    }
    return in.ok();
}

void
RenameMap::saveState(std::string &out) const
{
    for (int phys : map_)
        serial::appendI64(out, phys);
}

bool
RenameMap::loadState(serial::Reader &in)
{
    std::array<int, NUM_ARCH_REGS> map;
    for (int l = 0; l < NUM_ARCH_REGS; ++l) {
        std::int64_t phys = in.readI64();
        // The zero register stays unmapped; every other register maps
        // into its own file.
        if (l == 0 ? phys != -1
                   : phys < 0 || phys >= (isFp(l) ? fp_size_ : int_size_))
            return false;
        map[static_cast<std::size_t>(l)] = static_cast<int>(phys);
    }
    if (!in.ok())
        return false;
    map_ = map;
    return true;
}

RenameMap::RenameMap(PhysRegFile &int_file, PhysRegFile &fp_file)
    : int_size_(int_file.size()), fp_size_(fp_file.size())
{
    map_[0] = -1; // zero register
    for (int l = 1; l < NUM_INT_ARCH_REGS; ++l) {
        int phys = int_file.alloc();
        if (phys < 0)
            mcd_panic("too few integer physical registers");
        int_file.markWritten(phys, 0, DomainId::Integer);
        map_[static_cast<std::size_t>(l)] = phys;
    }
    for (int l = NUM_INT_ARCH_REGS; l < NUM_ARCH_REGS; ++l) {
        int phys = fp_file.alloc();
        if (phys < 0)
            mcd_panic("too few FP physical registers");
        fp_file.markWritten(phys, 0, DomainId::FloatingPoint);
        map_[static_cast<std::size_t>(l)] = phys;
    }
}

void
RenameMap::zeroRegister()
{
    mcd_panic("renaming the zero register");
}

} // namespace mcd
