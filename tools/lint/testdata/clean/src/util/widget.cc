#include "util/widget.h"

#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/fault.h"

// 79 code points, over 79 bytes: ———————————————————— zzzzzzzzzzzzzzzzzzzzzzzz
int Widget() {
  infuserki::obs::Registry::Get().GetCounter("widget/turns")->Increment();
  (void)infuserki::util::WriteFileAtomic("/tmp/w", "w", "widget/save");
  return FAULT_POINT("widget/step").ok() ? 0 : 1;
}
