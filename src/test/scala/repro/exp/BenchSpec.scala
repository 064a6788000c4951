package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

/** The one timing rule of every reproduced figure: the median of
  * `Bench.Reps` timed runs after `Bench.Warmup` untimed ones, each run
  * after its own untimed setup.
  */
class BenchSpec extends AnyFunSuite {
  private val Runs = 7 // 2 untimed + 5 timed

  test("setup and run each execute 7 times") {
    var setups = 0; var runs = 0
    Bench.medianMsAfter { setups += 1 } { _ => runs += 1 }
    assert(setups == Runs && runs == Runs)
    var plain = 0
    Bench.medianMs { plain += 1 }
    assert(plain == Runs)
  }

  test("each run receives the value of its own setup") {
    var made = 0
    val seen = mutable.ArrayBuffer.empty[Int]
    Bench.medianMsAfter { made += 1; made } { v => seen += v }
    assert(seen == (1 to Runs))
  }

  test("setup time is not counted") {
    val ms = Bench.medianMsAfter(Thread.sleep(50))(_ => ())
    assert(ms >= 0 && ms < 25, s"median $ms ms counts the 50 ms setup")
  }

  test("run time is counted") {
    val ms = Bench.medianMs(Thread.sleep(20))
    assert(ms >= 19, s"median $ms ms of a 20 ms run")
  }
}
