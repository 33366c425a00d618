#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench
{

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local int index = next.fetch_add(1);
    return index;
}

std::uint64_t
SpanLog::open(const std::string &name, std::uint64_t parent)
{
    if (!enabled_)
        return 0;
    Span span;
    span.parent = parent;
    span.name = name;
    span.thread = threadIndex();
    span.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
SpanLog::close(std::uint64_t id)
{
    if (id == 0)
        return;
    std::uint64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].endNs = end;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
SpanLog::selfTimes(std::uint64_t root) const
{
    std::vector<Span> all = spans();
    std::map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : all)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, double> self;
    if (root == 0 || root > all.size())
        return self;
    std::vector<const Span *> stack{&all[root - 1]};
    while (!stack.empty()) {
        const Span *s = stack.back();
        stack.pop_back();
        // Union of the children's intervals, clipped to the parent:
        // concurrent children (worker threads, client connections)
        // cover the parent's interval once, not once per child.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (const Span *c : children[s->id]) {
            iv.emplace_back(std::max(c->startNs, s->startNs),
                            std::min(c->endNs, s->endNs));
            stack.push_back(c);
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, cursor = s->startNs;
        for (auto [a, b] : iv) {
            a = std::max(a, cursor);
            if (b > a) {
                covered += b - a;
                cursor = b;
            }
        }
        double dur = static_cast<double>(s->endNs - s->startNs);
        self[s->id == root ? "other" : s->name] +=
            dur - static_cast<double>(covered);
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<Span> all = spans();
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "  {\"id\": %llu, \"parent\": %llu, \"name\": "
                     "\"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                     "\"thread\": %d}%s\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     s.name.c_str(),
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs), s.thread,
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
