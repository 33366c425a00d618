#include "power/power_accountant.hh"

namespace mcd
{

PowerAccountant::PowerAccountant(const EnergyModel &model)
    : model_(&model)
{
}

NanoJoule
PowerAccountant::chipEnergy() const
{
    NanoJoule total = 0.0;
    for (int d = 0; d < NUM_CLOCKED_DOMAINS; ++d) {
        total += domain_access_[static_cast<std::size_t>(d)] +
                 domain_base_[static_cast<std::size_t>(d)];
    }
    return total;
}

NanoJoule
PowerAccountant::domainEnergy(DomainId domain) const
{
    if (domain == DomainId::External)
        return external_;
    auto d = static_cast<std::size_t>(domainIndex(domain));
    return domain_access_[d] + domain_base_[d];
}

NanoJoule
PowerAccountant::structureEnergy(StructureId structure) const
{
    return structure_[static_cast<std::size_t>(structure)];
}

NanoJoule
PowerAccountant::domainBaseEnergy(DomainId domain) const
{
    if (domain == DomainId::External)
        return 0.0;
    return domain_base_[static_cast<std::size_t>(domainIndex(domain))];
}

void
PowerAccountant::saveState(std::string &out) const
{
    for (NanoJoule e : domain_access_)
        serial::appendDouble(out, e);
    for (NanoJoule e : domain_base_)
        serial::appendDouble(out, e);
    for (NanoJoule e : structure_)
        serial::appendDouble(out, e);
    serial::appendDouble(out, external_);
}

bool
PowerAccountant::loadState(serial::Reader &in)
{
    for (NanoJoule &e : domain_access_)
        e = in.readDouble();
    for (NanoJoule &e : domain_base_)
        e = in.readDouble();
    for (NanoJoule &e : structure_)
        e = in.readDouble();
    external_ = in.readDouble();
    return in.ok();
}

void
PowerAccountant::reset()
{
    domain_access_.fill(0.0);
    domain_base_.fill(0.0);
    structure_.fill(0.0);
    external_ = 0.0;
}

} // namespace mcd
