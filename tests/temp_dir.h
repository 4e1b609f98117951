/**
 * @file
 * Test helper: a fresh scratch directory, removed with its contents.
 */
#ifndef JSONSKI_TESTS_TEMP_DIR_H
#define JSONSKI_TESTS_TEMP_DIR_H

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace jsonski::test {

class TempDir
{
  public:
    TempDir()
    {
        namespace fs = std::filesystem;
        std::string tmpl =
            (fs::temp_directory_path() / "jsonski-test-XXXXXX").string();
        if (::mkdtemp(tmpl.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed");
        path_ = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    /** Write @p contents to NAME inside the directory; its path. */
    std::string
    file(const std::string& name, std::string_view contents) const
    {
        std::string p = path(name);
        std::ofstream out(p, std::ios::binary);
        out.write(contents.data(),
                  static_cast<std::streamsize>(contents.size()));
        if (!out.flush())
            throw std::runtime_error("cannot write " + p);
        return p;
    }

    /** Path of NAME inside the directory (not created). */
    std::string path(const std::string& name) const
    {
        return (path_ / name).string();
    }

    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

} // namespace jsonski::test

#endif // JSONSKI_TESTS_TEMP_DIR_H
