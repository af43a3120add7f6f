<?php
// Each flow below carries one kind of validation evidence, or none.

// a branch guard: the sink runs only on the true edge of is_numeric
$a = $_GET['a'];
if (is_numeric($a)) {
    mysql_query("SELECT * FROM t WHERE id = $a");
}

// an exit guard: the false edge of !is_numeric reaches the sink
$b = $_GET['b'];
if (!is_numeric($b)) {
    exit;
}
mysql_query("SELECT * FROM t WHERE id = $b");

// a cast: every def reaching the sink is sanitizing
$c = (int)$_GET['c'];
mysql_query("SELECT * FROM t WHERE id = $c");

// intval, the same through a conversion function
$d = intval($_POST['d']);
mysql_query("SELECT * FROM t WHERE id = $d");

// a redefinition after the guard: the validated value is gone
$e = $_GET['e'];
if (!is_numeric($e)) {
    exit;
}
$e = $_GET['f'];
mysql_query("SELECT * FROM t WHERE id = $e");

// a redefinition after the sink flows back to it around the loop
$x = $_GET['x'];
if (!is_numeric($x)) {
    exit;
}
while ($more) {
    mysql_query("SELECT * FROM t WHERE id = $x");
    $x = $_GET['next'];
}
