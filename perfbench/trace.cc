#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench
{

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 ||
            static_cast<std::size_t>(s.parent) >= spans.size())
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        const std::int64_t a = std::max(s.startNs, p.startNs);
        const std::int64_t b = std::min(s.endNs, p.endNs);
        if (a < b)
            kids[static_cast<std::size_t>(s.parent)].push_back({a, b});
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curA = 0, curB = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            if (open && a <= curB) {
                curB = std::max(curB, b);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = a;
            curB = b;
            open = true;
        }
        if (open)
            covered += curB - curA;
        self[i] = spans[i].durNs() - covered;
    }
    return self;
}

std::map<std::string, std::int64_t>
selfTimeByName(const std::vector<Span> &spans)
{
    std::map<std::string, std::int64_t> out;
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

bool
wellNested(const std::vector<Span> &spans)
{
    for (const Span &s : spans) {
        if (s.endNs < s.startNs)
            return false;
        if (s.parent < 0)
            continue;
        if (static_cast<std::size_t>(s.parent) >= spans.size())
            return false;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        if (s.startNs < p.startNs || s.endNs > p.endNs)
            return false;
    }
    for (std::int64_t t : selfTimesNs(spans))
        if (t < 0)
            return false;
    return true;
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            o += buf;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

} // namespace

bool
writeSpansJson(const std::vector<Span> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"name\": %s, \"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"cpu_ns\": %lld, \"parent\": %ld, \"run\": %llu, "
                     "\"tag\": %s}%s\n",
                     jsonString(s.name).c_str(),
                     static_cast<long long>(s.startNs - t0),
                     static_cast<long long>(s.endNs - t0),
                     static_cast<long long>(s.cpuNs), s.parent,
                     static_cast<unsigned long long>(s.run),
                     jsonString(s.tag).c_str(),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
