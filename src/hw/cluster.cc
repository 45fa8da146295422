#include "hw/cluster.hh"

namespace cedar::hw
{

Cluster::Cluster(sim::EventQueue &eq, net::Network &net,
                 os::Accounting &acct, hpm::Trace &trace,
                 const CostModel &costs, sim::ClusterId id, unsigned n_ces)
    : id_(id), bus_(eq, costs)
{
    for (unsigned i = 0; i < n_ces; ++i) {
        const sim::CeId global = id * static_cast<int>(n_ces) +
                                 static_cast<int>(i);
        ces_.push_back(std::make_unique<Ce>(eq, net, acct, trace, costs,
                                            global, id,
                                            static_cast<int>(i)));
    }
}

unsigned
Cluster::activeCount() const
{
    unsigned n = 0;
    for (const auto &ce : ces_) {
        if (ce->active())
            ++n;
    }
    return n;
}

} // namespace cedar::hw
