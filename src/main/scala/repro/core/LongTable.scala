package repro.core

/** The one primitive hash table of the project: `long` keys with a
  * parallel `long` value array, open addressing with Fibonacci hashing and
  * linear probing at load ≤ 1/2. Nothing is boxed. `Long.MinValue` marks
  * an empty slot, so it is the one key the table cannot hold; a widened
  * `Int` is never it.
  *
  * The table starts with room for `expected` keys and doubles when an
  * insert would pass load 1/2. A slot returned by [[find]] or [[insert]]
  * stays valid until the next insert of a new key.
  */
final class LongTable(expected: Int) extends Serializable {
  import LongTable.Empty

  private var keys = {
    var n = 2
    while (n < 2L * expected) n <<= 1
    val a = new Array[Long](n)
    java.util.Arrays.fill(a, Empty) // not Array.fill, which boxes each element
    a
  }
  private var vals = new Array[Long](keys.length)
  private var shift = Integer.numberOfLeadingZeros(keys.length) + 33 // 64 − log2(keys.length)
  private var count = 0

  /** Number of keys held. */
  def size: Int = count

  /** Fibonacci hashing: the top log2(capacity) bits of the key times 2^64/φ. */
  private def home(key: Long): Int = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt

  /** Slot of `key`, or −1 when it is absent. */
  def find(key: Long): Int = {
    var s = home(key)
    while (keys(s) != Empty) {
      if (keys(s) == key) return s
      s = (s + 1) & (keys.length - 1)
    }
    -1
  }

  /** Slot of `key`, inserted with value 0 when it is absent. */
  def insert(key: Long): Int = {
    require(key != Empty, "Long.MinValue marks an empty slot")
    var s = slot(key)
    if (keys(s) == Empty) {
      if (2 * (count + 1) > keys.length) { grow(); s = slot(key) }
      keys(s) = key; count += 1
    }
    s
  }

  /** Value at slot `s`. */
  def value(s: Int): Long = vals(s)

  def setValue(s: Int, v: Long): Unit = vals(s) = v

  /** Adds `delta` to the value of `key`, inserting it at 0 first when absent. */
  def add(key: Long, delta: Long): Unit = { val s = insert(key); vals(s) += delta }

  /** Applies `f` to every (key, value), in slot order. */
  def foreach(f: (Long, Long) => Unit): Unit = {
    var s = 0
    while (s < keys.length) { if (keys(s) != Empty) f(keys(s), vals(s)); s += 1 }
  }

  /** Slot of `key`, or the empty slot where it would go. */
  private def slot(key: Long): Int = {
    var s = home(key)
    while (keys(s) != key && keys(s) != Empty) s = (s + 1) & (keys.length - 1)
    s
  }

  /** Doubles the table and re-inserts every key with its value. */
  private def grow(): Unit = {
    val oldKeys = keys; val oldVals = vals
    keys = new Array[Long](2 * oldKeys.length); java.util.Arrays.fill(keys, Empty)
    vals = new Array[Long](keys.length); shift -= 1
    var j = 0
    while (j < oldKeys.length) {
      if (oldKeys(j) != Empty) { val s = slot(oldKeys(j)); keys(s) = oldKeys(j); vals(s) = oldVals(j) }
      j += 1
    }
  }
}

object LongTable {
  /** Marks an empty slot. */
  private final val Empty = Long.MinValue
}
