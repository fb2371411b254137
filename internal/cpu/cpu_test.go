package cpu_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/repetition"
)

func run(t *testing.T, src string, input string) *cpu.Machine {
	t.Helper()
	m := load(t, src, input)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !m.Halted {
		t.Fatal("program did not exit within 1M instructions")
	}
	return m
}

func load(t *testing.T, src string, input string) *cpu.Machine {
	t.Helper()
	im, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return cpu.New(im, []byte(input))
}

const exitStub = `
__start:
	jal main
	move $a0, $v0
	li $v0, 10
	syscall
`

func TestArithmetic(t *testing.T) {
	m := run(t, exitStub+`
		.func main 0
main:
		li $t0, 6
		li $t1, 7
		mult $t0, $t1
		mflo $t2          # 42
		li $t3, 100
		div $t3, $t1
		mflo $t4          # 14
		mfhi $t5          # 2
		addu $v0, $t2, $t4
		addu $v0, $v0, $t5 # 58
		jr $ra
		.endfunc
	`, "")
	if m.ExitCode != 58 {
		t.Errorf("exit = %d, want 58", m.ExitCode)
	}
}

func TestSignedOps(t *testing.T) {
	m := run(t, exitStub+`
		.func main 0
main:
		li $t0, -10
		li $t1, 3
		div $t0, $t1
		mflo $t2            # -3 (trunc toward zero)
		mfhi $t3            # -1
		slt $t4, $t0, $t1   # 1 (-10 < 3 signed)
		sltu $t5, $t0, $t1  # 0 (huge unsigned)
		sra $t6, $t0, 1     # -5
		srl $t7, $t0, 28    # 0xf
		addu $v0, $t2, $t3  # -4
		addu $v0, $v0, $t4  # -3
		addu $v0, $v0, $t5  # -3
		addu $v0, $v0, $t6  # -8
		addu $v0, $v0, $t7  # 7
		jr $ra
		.endfunc
	`, "")
	if m.ExitCode != 7 {
		t.Errorf("exit = %d, want 7", m.ExitCode)
	}
}

func TestMemoryOps(t *testing.T) {
	m := run(t, exitStub+`
		.data
arr:	.word 10, 20, 30
bytes:	.byte 0xff, 1
		.text
		.func main 0
main:
		la $t0, arr
		lw $t1, 4($t0)      # 20
		li $t2, 99
		sw $t2, 8($t0)
		lw $t3, 8($t0)      # 99
		la $t4, bytes
		lb $t5, 0($t4)      # -1 (sign extended)
		lbu $t6, 0($t4)     # 255
		sh $t1, 0($t4)      # overwrite halves
		lhu $t7, 0($t4)     # 20
		addu $v0, $t1, $t3  # 119
		addu $v0, $v0, $t5  # 118
		subu $v0, $v0, $t6  # -137
		addu $v0, $v0, $t7  # -117
		jr $ra
		.endfunc
	`, "")
	if m.ExitCode != -117 {
		t.Errorf("exit = %d, want -117", m.ExitCode)
	}
}

func TestLoop(t *testing.T) {
	// sum 1..100 = 5050
	m := run(t, exitStub+`
		.func main 0
main:
		li $t0, 0
		li $t1, 1
loop:
		addu $t0, $t0, $t1
		addiu $t1, $t1, 1
		li $t2, 100
		ble $t1, $t2, loop
		move $v0, $t0
		jr $ra
		.endfunc
	`, "")
	if m.ExitCode != 5050 {
		t.Errorf("exit = %d, want 5050", m.ExitCode)
	}
}

func TestCallsAndStack(t *testing.T) {
	// Recursive factorial with proper prologue/epilogue.
	m := run(t, exitStub+`
		.func fact 1
fact:
		addiu $sp, $sp, -24
		sw $ra, 20($sp)
		sw $s0, 16($sp)
		move $s0, $a0
		li $v0, 1
		ble $a0, $zero, done
		addiu $a0, $a0, -1
		jal fact
		mult $v0, $s0
		mflo $v0
done:
		lw $s0, 16($sp)
		lw $ra, 20($sp)
		addiu $sp, $sp, 24
		jr $ra
		.endfunc
		.func main 0
main:
		addiu $sp, $sp, -24
		sw $ra, 20($sp)
		li $a0, 6
		jal fact
		lw $ra, 20($sp)
		addiu $sp, $sp, 24
		jr $ra
		.endfunc
	`, "")
	if m.ExitCode != 720 {
		t.Errorf("exit = %d, want 720", m.ExitCode)
	}
}

func TestSyscallIO(t *testing.T) {
	m := run(t, exitStub+`
		.data
msg:	.asciiz "n="
		.text
		.func main 0
main:
		addiu $sp, $sp, -8
		sw $ra, 4($sp)
		la $a0, msg
		li $v0, 4
		syscall            # print "n="
		li $a0, -42
		li $v0, 1
		syscall            # print -42
		li $a0, '\n'
		li $v0, 11
		syscall            # putchar
		li $v0, 12
		syscall            # read char
		move $t0, $v0
		li $v0, 12
		syscall
		addu $v0, $v0, $t0
		lw $ra, 4($sp)
		addiu $sp, $sp, 8
		jr $ra
		.endfunc
	`, "AB")
	if got := m.Output.String(); got != "n=-42\n" {
		t.Errorf("output = %q", got)
	}
	if m.ExitCode != 'A'+'B' {
		t.Errorf("exit = %d, want %d", m.ExitCode, 'A'+'B')
	}
}

func TestReadCharEOF(t *testing.T) {
	m := run(t, exitStub+`
		.func main 0
main:
		li $v0, 12
		syscall
		jr $ra
		.endfunc
	`, "")
	if m.ExitCode != -1 {
		t.Errorf("read at EOF = %d, want -1", m.ExitCode)
	}
}

func TestSbrkAndHeap(t *testing.T) {
	m := run(t, exitStub+`
		.func main 0
main:
		li $a0, 64
		li $v0, 9
		syscall            # sbrk(64)
		move $t0, $v0
		li $t1, 1234
		sw $t1, 0($t0)
		sw $t1, 60($t0)
		lw $v0, 60($t0)
		jr $ra
		.endfunc
	`, "")
	if m.ExitCode != 1234 {
		t.Errorf("exit = %d, want 1234", m.ExitCode)
	}
}

func TestReadBlock(t *testing.T) {
	m := run(t, exitStub+`
		.func main 0
main:
		li $a0, 64
		li $v0, 9
		syscall
		move $t0, $v0
		move $a0, $t0
		li $a1, 16
		li $v0, 13
		syscall            # read up to 16 bytes
		move $t1, $v0      # got
		lb $t2, 0($t0)
		lb $t3, 4($t0)
		addu $v0, $t2, $t3
		addu $v0, $v0, $t1
		jr $ra
		.endfunc
	`, "hello")
	want := int32('h') + int32('o') + 5
	if m.ExitCode != want {
		t.Errorf("exit = %d, want %d", m.ExitCode, want)
	}
}

// faults

func TestFaults(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"div-zero", exitStub + ".func main 0\nmain: li $t0, 1\ndiv $t0, $zero\njr $ra\n.endfunc", "division by zero"},
		{"unaligned", exitStub + ".func main 0\nmain: li $t0, 0x10000002\nlw $t1, 0($t0)\njr $ra\n.endfunc", "unaligned"},
		{"oob", exitStub + ".func main 0\nmain: li $t0, 0x20000000\nlw $t1, 0($t0)\njr $ra\n.endfunc", "out of bounds"},
		{"badsys", exitStub + ".func main 0\nmain: li $v0, 99\nsyscall\njr $ra\n.endfunc", "unknown syscall"},
		{"break", exitStub + ".func main 0\nmain: break\njr $ra\n.endfunc", "break"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := load(t, c.src, "")
			_, err := m.Run(1000)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestStepAfterHalt(t *testing.T) {
	m := run(t, exitStub+".func main 0\nmain: li $v0, 0\njr $ra\n.endfunc", "")
	if err := m.Step(); err == nil {
		t.Error("Step after halt should fail")
	}
}

// observer plumbing

type recorder struct {
	events  []cpu.Event
	calls   []cpu.CallEvent
	returns []cpu.RetEvent
}

func (r *recorder) OnInst(ev *cpu.Event)      { r.events = append(r.events, *ev) }
func (r *recorder) OnCall(ev *cpu.CallEvent)  { r.calls = append(r.calls, *ev) }
func (r *recorder) OnReturn(ev *cpu.RetEvent) { r.returns = append(r.returns, *ev) }

// lastCall is a CallObserver that copies each event and keeps nothing
// else: the contract every call observer follows.
type lastCall struct {
	call  cpu.CallEvent
	ret   cpu.RetEvent
	calls int
}

func (o *lastCall) OnInst(*cpu.Event)         {}
func (o *lastCall) OnCall(ev *cpu.CallEvent)  { o.call = *ev; o.calls++ }
func (o *lastCall) OnReturn(ev *cpu.RetEvent) { o.ret = *ev }

// TestCallEventsAllocateNothing: the machine reuses one CallEvent and
// one RetEvent, so delivering calls and returns to an observer that
// copies them costs no heap object on either dispatch path.
func TestCallEventsAllocateNothing(t *testing.T) {
	for _, noTranslate := range []bool{false, true} {
		m := load(t, `
__start:
		li $a0, 1
loop:
		jal double
		move $a0, $v0
		b loop
		.func double 1
double:
		addu $v0, $a0, $a0
		jr $ra
		.endfunc
	`, "")
		m.NoTranslate = noTranslate
		o := &lastCall{}
		m.Attach(o)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := m.Run(10_000); err != nil {
				t.Fatal(err)
			}
		})
		if o.calls == 0 || o.ret.Target != o.call.RetAddr {
			t.Fatalf("noTranslate=%v: calls=%d, last return %+v vs call %+v",
				noTranslate, o.calls, o.ret, o.call)
		}
		if allocs != 0 {
			t.Errorf("noTranslate=%v: %v allocations per 10K instructions of calls and returns, want 0",
				noTranslate, allocs)
		}
	}
}

// decliner is a CallObserver that declines call events.
type decliner struct{ lastCall }

func (*decliner) WantsCalls() bool { return false }

// TestAttachHonorsWantsCalls: a call observer that declines calls is
// attached for instructions only.
func TestAttachHonorsWantsCalls(t *testing.T) {
	m := load(t, exitStub+".func main 0\nmain: li $v0, 0\njr $ra\n.endfunc", "")
	o, d := &lastCall{}, &decliner{}
	m.Attach(o)
	m.Attach(d)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if o.calls != 1 || d.calls != 0 {
		t.Errorf("calls seen: accepting observer %d (want 1), declining observer %d (want 0)", o.calls, d.calls)
	}
}

func TestObserverEvents(t *testing.T) {
	m := load(t, exitStub+`
		.func double 1
double:
		addu $v0, $a0, $a0
		jr $ra
		.endfunc
		.func main 0
main:
		addiu $sp, $sp, -8
		sw $ra, 4($sp)
		li $a0, 21
		jal double
		lw $ra, 4($sp)
		addiu $sp, $sp, 8
		jr $ra
		.endfunc
	`, "")
	rec := &recorder{}
	m.Attach(rec)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.ExitCode != 42 {
		t.Fatalf("exit = %d", m.ExitCode)
	}
	// Two calls: __start->main, main->double. Two returns.
	if len(rec.calls) != 2 || len(rec.returns) != 2 {
		t.Fatalf("calls=%d returns=%d, want 2/2", len(rec.calls), len(rec.returns))
	}
	if rec.calls[1].Callee == nil || rec.calls[1].Callee.Name != "double" {
		t.Errorf("second call callee = %+v", rec.calls[1].Callee)
	}
	if rec.returns[0].Target != rec.calls[1].RetAddr {
		t.Errorf("return target %#x != call retaddr %#x", rec.returns[0].Target, rec.calls[1].RetAddr)
	}

	// Find the addu event: inputs both 21, output 42.
	found := false
	for _, ev := range rec.events {
		if ev.Inst.Op == isa.OpADDU && ev.Inst.Rd == isa.RegV0 && ev.DstVal == 42 {
			if ev.Src1Val != 21 || ev.Src2Val != 21 {
				t.Errorf("addu sources = %d,%d", ev.Src1Val, ev.Src2Val)
			}
			if ev.Dst != isa.RegV0 {
				t.Errorf("addu dst = %d", ev.Dst)
			}
			found = true
		}
	}
	if !found {
		t.Error("addu event not observed")
	}
	// Event indices are consecutive from 0.
	for i, ev := range rec.events {
		if ev.Index != uint64(i) {
			t.Fatalf("event %d has index %d", i, ev.Index)
		}
	}
}

func TestLoadStoreEvents(t *testing.T) {
	m := load(t, exitStub+`
		.data
v:		.word 7
		.text
		.func main 0
main:
		lw $t0, %gp(v)
		addiu $t0, $t0, 1
		sw $t0, %gp(v)
		move $v0, $t0
		jr $ra
		.endfunc
	`, "")
	rec := &recorder{}
	m.Attach(rec)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var loads, stores int
	for _, ev := range rec.events {
		if ev.IsLoad {
			loads++
			if ev.Addr != program.DataBase || ev.MemVal != 7 || ev.DstVal != 7 {
				t.Errorf("load event %+v", ev)
			}
		}
		if ev.IsStore {
			stores++
			if ev.Addr != program.DataBase || ev.MemVal != 8 {
				t.Errorf("store event %+v", ev)
			}
		}
	}
	if loads != 1 || stores != 1 {
		t.Errorf("loads=%d stores=%d", loads, stores)
	}
}

func TestBranchEvents(t *testing.T) {
	m := load(t, exitStub+`
		.func main 0
main:
		li $t0, 2
loop:
		addiu $t0, $t0, -1
		bne $t0, $zero, loop
		li $v0, 0
		jr $ra
		.endfunc
	`, "")
	rec := &recorder{}
	m.Attach(rec)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var taken, notTaken int
	for _, ev := range rec.events {
		if ev.IsBranch && ev.Inst.Op == isa.OpBNE {
			if ev.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if taken != 1 || notTaken != 1 {
		t.Errorf("taken=%d notTaken=%d, want 1/1", taken, notTaken)
	}
}

func TestRunMaxInstructions(t *testing.T) {
	m := load(t, "__start: b __start\n", "")
	n, err := m.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 || m.Halted {
		t.Errorf("ran %d halted=%v, want 100/false", n, m.Halted)
	}
}

// TestBrkExtentChecked pins the checkAddr fix: an access is bounded by
// its full extent [addr, addr+size), not its first byte, so a word
// access straddling an unaligned heap break faults instead of silently
// touching bytes past it.
func TestBrkExtentChecked(t *testing.T) {
	m := load(t, exitStub+`
		.func main 0
main:
		li $a0, 5
		li $v0, 9
		syscall            # sbrk(5): brk is now base+5, unaligned
		move $t0, $v0
		lb $t1, 4($t0)     # [base+4, base+5): still below brk, fine
		lw $t2, 4($t0)     # [base+4, base+8): crosses brk, must fault
		jr $ra
		.endfunc
	`, "")
	_, err := m.Run(0)
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("word load straddling brk: err = %v, want out of bounds", err)
	}
	if m.Halted {
		t.Fatal("machine halted; fault should have aborted before exit")
	}
}

// TestZeroDestEventValue pins the setDst fix: a write targeting $zero
// is architecturally discarded, so the retired event reports DstVal 0
// even when the instruction computed something else.
func TestZeroDestEventValue(t *testing.T) {
	m := load(t, exitStub+`
		.func main 0
main:
		li $t0, 3
		li $t1, 4
		addu $zero, $t0, $t1
		move $v0, $zero
		jr $ra
		.endfunc
	`, "")
	rec := &recorder{}
	m.Attach(rec)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range rec.events {
		if ev.Inst.Op == isa.OpADDU && ev.Inst.Rd == isa.RegZero {
			found = true
			if ev.Dst != isa.RegZero || ev.DstVal != 0 {
				t.Errorf("$zero-dest event: Dst=%d DstVal=%d, want 0/0", ev.Dst, ev.DstVal)
			}
			if ev.Src1Val != 3 || ev.Src2Val != 4 {
				t.Errorf("$zero-dest sources = %d,%d, want 3,4", ev.Src1Val, ev.Src2Val)
			}
		}
	}
	if !found {
		t.Fatal("addu $zero event not observed")
	}
}

// trackerObserver adapts a repetition.Tracker to cpu.Observer,
// recording the per-instruction repeat verdicts.
type trackerObserver struct {
	tr       *repetition.Tracker
	verdicts map[uint32][]bool // by PC, in retire order
}

func (o *trackerObserver) OnInst(ev *cpu.Event) {
	o.verdicts[ev.PC] = append(o.verdicts[ev.PC], o.tr.Observe(ev))
}

// TestZeroDestCensusRepetition is the census pin for the setDst fix:
// one static lw-into-$zero inside a loop whose loaded word changes
// every iteration still counts as a repeat, because the architectural
// output (what any consumer could read back) is always 0.
func TestZeroDestCensusRepetition(t *testing.T) {
	m := load(t, exitStub+`
		.data
v:		.word 7
		.text
		.func main 0
main:
		li $t2, 2          # two iterations
		la $t0, v
loop:
		lw $zero, 0($t0)   # same input ($t0), changing memory word
		addiu $t3, $t3, 1
		sw $t3, 0($t0)     # mutate the word between iterations
		addiu $t2, $t2, -1
		bne $t2, $zero, loop
		li $v0, 0
		jr $ra
		.endfunc
	`, "")
	obs := &trackerObserver{tr: repetition.NewTracker(), verdicts: make(map[uint32][]bool)}
	m.Attach(obs)
	if _, err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	for pc, vs := range obs.verdicts {
		in, err := m.Image.InstAt(pc)
		if err != nil || in.Op != isa.OpLW || in.Rt != isa.RegZero {
			continue
		}
		if len(vs) != 2 {
			t.Fatalf("lw $zero executed %d times, want 2", len(vs))
		}
		if vs[0] || !vs[1] {
			t.Errorf("lw $zero verdicts = %v, want [false true]: the discarded value must not break repetition", vs)
		}
		return
	}
	t.Fatal("lw $zero instruction not observed")
}

func TestZeroRegisterImmutable(t *testing.T) {
	m := run(t, exitStub+`
		.func main 0
main:
		li $zero, 55
		move $v0, $zero
		jr $ra
		.endfunc
	`, "")
	if m.ExitCode != 0 {
		t.Errorf("$zero modified: exit = %d", m.ExitCode)
	}
}
