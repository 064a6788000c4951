package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** The one timing rule of every reproduced figure: the median and IQR
  * of `Bench.Reps` timed runs after `Bench.Warmup` untimed ones, each run
  * after its own untimed setup.
  */
class BenchSpec extends AnyFunSuite {
  private val Runs = 7 // 2 untimed + 5 timed

  test("setup and run each execute 7 times") {
    var setups = 0; var runs = 0
    Bench.timeMsAfter { setups += 1 } { _ => runs += 1 }
    assert(setups == Runs && runs == Runs)
    var plain = 0
    Bench.timeMs { plain += 1 }
    assert(plain == Runs)
  }

  test("each run receives the value of its own setup") {
    var made = 0
    val seen = mutable.ArrayBuffer.empty[Int]
    Bench.timeMsAfter { made += 1; made } { v => seen += v }
    assert(seen == (1 to Runs))
  }

  test("setup time is not counted") {
    val ms = Bench.timeMsAfter(Thread.sleep(50))(_ => ()).median
    assert(ms >= 0 && ms < 25, s"median $ms ms counts the 50 ms setup")
  }

  test("run time is counted") {
    val ms = Bench.timeMs(Thread.sleep(20)).median
    assert(ms >= 19, s"median $ms ms of a 20 ms run")
  }

  test("the IQR is the 4th minus the 2nd of the 5 sorted timed runs") {
    // Runs sleep 0, 0, 40, 10, 20, 30, 0 ms: the timed five sort to
    // about 0, 10, 20, 30, 40, so the median is ≈ 20 and the IQR ≈ 20.
    val sleeps = Iterator(0, 0, 40, 10, 20, 30, 0)
    val t = Bench.timeMs(Thread.sleep(sleeps.next().toLong))
    assert(t.median >= 19 && t.median < 30, s"median $t")
    assert(t.iqr >= 15 && t.iqr < 30, s"IQR $t")
    assert(Bench.Timing(6.444, 0.126).toString == "6.44 [0.13]")
  }
}
