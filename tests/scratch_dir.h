// Per-process scratch directories for tests that touch the filesystem.
//
// gtest_discover_tests runs every test case as its own process, and
// `ctest -j` runs those processes concurrently, so a fixed path under the
// system temp dir is shared state between unrelated tests.  Each process
// instead gets its own mkdtemp root, removed when the process exits; tests
// create and delete directories only beneath it.

#pragma once

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace concilium::testutil {

/// This process's private scratch root, created on first use.
inline const std::filesystem::path& scratch_root() {
    struct Root {
        std::filesystem::path path;
        Root() {
            std::string tmpl = (std::filesystem::temp_directory_path() /
                                "concilium_test_XXXXXX")
                                   .string();
            if (::mkdtemp(tmpl.data()) == nullptr) {
                throw std::runtime_error("mkdtemp failed for " + tmpl);
            }
            path = tmpl;
        }
        ~Root() {
            std::error_code ignored;
            std::filesystem::remove_all(path, ignored);
        }
    };
    static const Root root;
    return root.path;
}

/// A fresh, empty directory `name` under this process's scratch root.
inline std::filesystem::path scratch_dir(const std::string& name) {
    const std::filesystem::path dir = scratch_root() / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

}  // namespace concilium::testutil
