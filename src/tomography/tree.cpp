#include "tomography/tree.h"

#include <algorithm>
#include <stdexcept>

namespace concilium::tomography {

ProbeTree::ProbeTree(net::RouterId root, std::span<const net::Path> paths)
    : root_(root) {
    Node root_node;
    root_node.router = root;
    nodes_.push_back(root_node);
    node_of_[root] = 0;

    std::unordered_set<net::LinkId> seen_links;
    for (const net::Path& path : paths) {
        insert_path(path.routers, path.links, seen_links);
    }
}

ProbeTree::ProbeTree(net::RouterId root, std::span<const net::PathView> paths)
    : root_(root) {
    Node root_node;
    root_node.router = root;
    nodes_.push_back(root_node);
    node_of_[root] = 0;

    std::unordered_set<net::LinkId> seen_links;
    for (const net::PathView& path : paths) {
        insert_path(path.routers, path.links, seen_links);
    }
}

void ProbeTree::insert_path(std::span<const net::RouterId> routers,
                            std::span<const net::LinkId> links,
                            std::unordered_set<net::LinkId>& seen_links) {
    if (links.empty()) return;
    if (routers.front() != root_) {
        throw std::invalid_argument("ProbeTree: path does not start at root");
    }
    int cur = 0;
    for (std::size_t hop = 0; hop < links.size(); ++hop) {
        const net::RouterId router = routers[hop + 1];
        const net::LinkId link = links[hop];
        const auto it = node_of_.find(router);
        if (it != node_of_.end()) {
            if (nodes_[static_cast<std::size_t>(it->second)].via != link) {
                throw std::invalid_argument(
                    "ProbeTree: paths disagree on a router's parent");
            }
            cur = it->second;
        } else {
            Node node;
            node.router = router;
            node.via = link;
            node.parent = cur;
            const int idx = static_cast<int>(nodes_.size());
            nodes_[static_cast<std::size_t>(cur)].children.push_back(idx);
            nodes_.push_back(node);
            node_of_[router] = idx;
            cur = idx;
        }
        if (seen_links.insert(link).second) links_.push_back(link);
        // Node i owns links()[i-1]: a new router always arrives over a new
        // link, and a known router over its own recorded uplink.  The
        // striped-probe sampler draws links in node order on this basis.
        if (links_.size() + 1 != nodes_.size() ||
            links_.back() != nodes_.back().via) {
            throw std::logic_error(
                "ProbeTree: node/link ownership invariant broken");
        }
    }
    // Terminal router of this path is a probed leaf endpoint.
    Node& endpoint = nodes_[static_cast<std::size_t>(cur)];
    if (!endpoint.leaf_slot.has_value()) {
        endpoint.leaf_slot = static_cast<int>(leaves_.size());
        leaves_.push_back(endpoint.router);
        leaf_nodes_.push_back(cur);
    }
}

std::optional<int> ProbeTree::node_of(net::RouterId router) const {
    const auto it = node_of_.find(router);
    if (it == node_of_.end()) return std::nullopt;
    return it->second;
}

std::vector<net::LinkId> ProbeTree::path_links(int leaf_slot) const {
    if (leaf_slot < 0 ||
        leaf_slot >= static_cast<int>(leaf_nodes_.size())) {
        throw std::out_of_range("ProbeTree::path_links: bad leaf slot");
    }
    std::vector<net::LinkId> out;
    for (int n = leaf_nodes_[static_cast<std::size_t>(leaf_slot)]; n != 0;
         n = nodes_[static_cast<std::size_t>(n)].parent) {
        out.push_back(nodes_[static_cast<std::size_t>(n)].via);
    }
    std::reverse(out.begin(), out.end());
    return out;
}

std::vector<int> ProbeTree::leaf_slots_under(int node) const {
    if (node < 0 || node >= static_cast<int>(nodes_.size())) {
        throw std::out_of_range("ProbeTree::leaf_slots_under: bad node");
    }
    std::vector<int> out;
    std::vector<int> stack{node};
    while (!stack.empty()) {
        const int n = stack.back();
        stack.pop_back();
        const Node& nd = nodes_[static_cast<std::size_t>(n)];
        if (nd.leaf_slot.has_value()) out.push_back(*nd.leaf_slot);
        stack.insert(stack.end(), nd.children.begin(), nd.children.end());
    }
    std::sort(out.begin(), out.end());
    return out;
}

void ProbeTree::mark_subtrees(const std::vector<bool>& leaf_mask,
                              std::vector<char>& out) const {
    if (leaf_mask.size() != leaf_nodes_.size()) {
        throw std::invalid_argument("ProbeTree::mark_subtrees: mask size");
    }
    out.assign(nodes_.size(), 0);
    for (std::size_t slot = 0; slot < leaf_mask.size(); ++slot) {
        out[static_cast<std::size_t>(leaf_nodes_[slot])] = leaf_mask[slot];
    }
    for (std::size_t k = nodes_.size(); k-- > 1;) {
        if (out[k] != 0) out[static_cast<std::size_t>(nodes_[k].parent)] = 1;
    }
}

Forest::Forest(std::vector<const ProbeTree*> trees) : trees_(std::move(trees)) {
    if (trees_.empty()) {
        throw std::invalid_argument("Forest: no trees");
    }
    std::unordered_set<net::LinkId> seen;
    for (const ProbeTree* t : trees_) {
        for (const net::LinkId l : t->links()) {
            if (seen.insert(l).second) links_.push_back(l);
        }
    }
}

double Forest::coverage(std::size_t tree_count) const {
    tree_count = std::min(tree_count, trees_.size());
    std::unordered_set<net::LinkId> covered;
    for (std::size_t i = 0; i < tree_count; ++i) {
        covered.insert(trees_[i]->links().begin(), trees_[i]->links().end());
    }
    return links_.empty() ? 0.0
                          : static_cast<double>(covered.size()) /
                                static_cast<double>(links_.size());
}

double Forest::mean_vouchers(std::size_t tree_count) const {
    tree_count = std::min(tree_count, trees_.size());
    std::unordered_map<net::LinkId, int> vouchers;
    for (std::size_t i = 0; i < tree_count; ++i) {
        for (const net::LinkId l : trees_[i]->links()) ++vouchers[l];
    }
    if (vouchers.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& [link, n] : vouchers) sum += n;
    return sum / static_cast<double>(vouchers.size());
}

}  // namespace concilium::tomography
