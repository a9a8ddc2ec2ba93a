// hp-lint-fixture: expect=4
// Golden fixture: every class of allocation the hot-path-purity rule
// bans, plus a registry counter write, inside a marked region.
// Identical calls *outside* the region must stay silent.
#include <cstdlib>
#include <vector>

struct Counter {
  void add(unsigned long n) { total += n; }
  unsigned long total = 0;
};

inline int hot_walk(std::vector<int>& v, Counter* c) {
  v.push_back(0);  // outside the region: allowed
  // HP_HOT_BEGIN(walk)
  v.push_back(1);
  int* p = new int[4];
  void* q = std::malloc(8);
  c->add(1);
  // HP_HOT_END(walk)
  c->add(v.size());  // outside the region: allowed
  std::free(q);
  delete[] p;
  return v.back();
}
